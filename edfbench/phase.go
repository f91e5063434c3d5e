package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service/client"
)

// clients is the closed loop's population: each client holds one
// keep-alive connection and sends its next request only after the
// previous reply, so a slower system receives less load.
const clients = 2

// mix is one workload: the traffic the benchmark sends and checks.
type mix interface {
	// generate builds, from the seed, the timed inputs sized to roughly
	// ops requests and a disjoint warm-up corpus.
	generate(seed int64, ops int)
	// boot starts the daemons the workload drives.
	boot(dir string) (*fleet, error)
	// warm runs the warm-up work users pay once, through the clients.
	warm(ctx context.Context, f *fleet, cs []*client.Client) error
	// jobs is the number of dispatch units of the timed phase (a request,
	// or a whole session scenario); requests is the number of requests,
	// and firstRequest(j) the index of job j's first request
	// (firstRequest(jobs()) == requests()).
	jobs() int
	requests() int
	firstRequest(j int) int
	// begin readies the answer slots of one timed phase.
	begin()
	// do runs job j through one client.
	do(ctx context.Context, c *caller, j int)
	// check compares every answer with the workload's oracle, marking
	// wrong answers as failed requests. It runs after the timed phase.
	check(ph *phase)
	// counts adds the per-layer counts and shares derived from the timed
	// phase's answers and daemon counter deltas.
	counts(m metricSet, ph *phase, delta map[string]float64)
	// mirror replays a deterministic sample of the timed inputs through
	// the layers' public functions in-process, one root span per request,
	// and returns the number of requests mirrored.
	mirror(ctx context.Context, l *spanLog, t *coreTally) int
}

// phase is the shared record of one timed phase, indexed by request.
// Each request index is written by exactly one client.
type phase struct {
	lat    []int64
	failed []bool
	tracer *tracer // nil when untraced

	errMu    sync.Mutex
	firstErr error
}

func newPhase(requests int) *phase {
	return &phase{lat: make([]int64, requests), failed: make([]bool, requests)}
}

func (ph *phase) fail(req int, err error) {
	ph.failed[req] = true
	ph.errMu.Lock()
	defer ph.errMu.Unlock()
	if ph.firstErr == nil {
		ph.firstErr = fmt.Errorf("request %d: %w", req, err)
	}
}

func (ph *phase) failures() int {
	n := 0
	for _, f := range ph.failed {
		if f {
			n++
		}
	}
	return n
}

// caller is one client of the closed loop, timing each request.
type caller struct {
	c  *client.Client
	ph *phase
}

// call times one request. name labels its client span in a traced phase.
func (c *caller) call(ctx context.Context, req int, name string, f func(context.Context) error) {
	tr := c.ph.tracer
	var id string
	if tr != nil {
		id = tr.id(req)
		ctx = context.WithValue(ctx, traceKey{}, id)
	}
	t0 := time.Now()
	err := f(ctx)
	t1 := time.Now()
	c.ph.lat[req] = t1.Sub(t0).Nanoseconds()
	if err != nil {
		c.ph.fail(req, err)
	}
	if tr != nil {
		tr.clientSpan(ctx, c.c, req, name, id, t0, t1)
	}
}

// skip marks requests a job could not send (its session never opened)
// as failed.
func (c *caller) skip(from, to int, err error) {
	for r := from; r < to; r++ {
		c.ph.fail(r, err)
	}
}

// tracer records client spans and, for every k-th request, fetches the
// server's own spans and attaches them under the client span.
type tracer struct {
	log    *spanLog
	every  int
	prefix string

	mu       sync.Mutex
	attached []int
	misses   int
}

func (t *tracer) id(req int) string { return fmt.Sprintf("%s%012x", t.prefix, req) }

func (t *tracer) clientSpan(ctx context.Context, c *client.Client, req int, name, id string, t0, t1 time.Time) {
	sid := t.log.add(-1, id, "client."+name, t0.UnixNano(), t1.UnixNano())
	if req%t.every != 0 {
		return
	}
	// Fetch at once: the daemons keep only their last 1024 traces.
	tr, err := c.Trace(context.WithValue(ctx, traceKey{}, ""), id)
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil || len(tr.Spans) == 0 {
		t.misses++
		return
	}
	t.log.attach(sid, tr)
	t.attached = append(t.attached, sid)
}

// runJobs dispatches jobs lo..hi-1 in order to workers goroutines, each
// taking the next job as soon as it is free, and waits for all of them.
func runJobs(workers, lo, hi int, f func(worker, job int)) {
	var next atomic.Int64
	next.Store(int64(lo))
	n := hi
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				f(w, j)
			}
		}()
	}
	wg.Wait()
}

// warmLoop runs n warm-up requests closed-loop over the clients and
// reports the first failure.
func warmLoop(cs []*client.Client, n int, f func(c *client.Client, j int) error) error {
	var mu sync.Mutex
	var errs []error
	runJobs(len(cs), 0, n, func(w, j int) {
		if err := f(cs[w], j); err != nil {
			mu.Lock()
			errs = append(errs, fmt.Errorf("warm-up %d: %w", j, err))
			mu.Unlock()
		}
	})
	return errors.Join(errs...)
}
