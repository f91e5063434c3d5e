// End-to-end coverage: a real server on a random port, driven only
// through the typed client, cross-checked against direct facade calls.
package service_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	edf "repro"
	"repro/internal/service"
	"repro/internal/service/client"
)

// newTestServer starts an in-process server and returns it with a client.
func newTestServer(t *testing.T, cfg service.Config) (*service.Server, *client.Client) {
	t.Helper()
	srv := service.New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, client.New(hs.URL, hs.Client())
}

// e2eSets generates n distinct valid task sets.
func e2eSets(t *testing.T, n int) []edf.TaskSet {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	sets := make([]edf.TaskSet, 0, n)
	for len(sets) < n {
		ts, err := edf.Generate(edf.GenConfig{
			N:           4 + rng.Intn(12),
			Utilization: 0.7 + rng.Float64()*0.28,
			PeriodMin:   100, PeriodMax: 10000,
			GapMean: 0.2,
		}, rng)
		if err != nil {
			continue
		}
		sets = append(sets, ts)
	}
	return sets
}

// TestE2EConcurrentAnalyze fires 150 concurrent analyze requests over 10
// distinct task sets and requires (a) every verdict to match a direct
// edf.Analyze call and (b) a positive cache hit rate from the repeats.
func TestE2EConcurrentAnalyze(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	sets := e2eSets(t, 10)
	want := make([]string, len(sets))
	for i, ts := range sets {
		want[i] = edf.Analyze(ts, edf.Options{}).Verdict.String()
	}

	const requests = 150
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		cached int
	)
	for i := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			si := i % len(sets)
			resp, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.SporadicWorkload(sets[si])})
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			if resp.Result.Verdict != want[si] {
				t.Errorf("set %d: service says %s, edf.Analyze says %s",
					si, resp.Result.Verdict, want[si])
			}
			if resp.Analyzer != "cascade" || resp.Fingerprint == "" {
				t.Errorf("request %d: analyzer %q fingerprint %q",
					i, resp.Analyzer, resp.Fingerprint)
			}
			if resp.Cached {
				mu.Lock()
				cached++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	st := srv.CacheStats()
	if st.HitRate() <= 0 {
		t.Errorf("cache hit rate %.3f on repeated sets, want > 0 (stats %+v)",
			st.HitRate(), st)
	}
	if cached == 0 {
		t.Error("no response reported cached=true despite repeats")
	}
	if st.Hits+st.Misses < requests {
		t.Errorf("cache saw %d lookups, want >= %d", st.Hits+st.Misses, requests)
	}
}

// TestE2ESessionFlow drives the full propose/commit/rollback lifecycle.
func TestE2ESessionFlow(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	sess, state, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 10, Deadline: 90, Period: 100}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if state.Committed != 1 || state.Pending != 0 || state.Analyzer != "cascade" {
		t.Fatalf("fresh session state: %+v", state)
	}

	// Propose two admissible tasks, then commit both.
	for i, task := range []edf.Task{
		{Name: "a", WCET: 20, Deadline: 150, Period: 200},
		{Name: "b", WCET: 5, Deadline: 40, Period: 50},
	} {
		resp, err := sess.Propose(ctx, service.ProposeRequest{Task: service.SporadicTask(task)})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Admitted || resp.Pending != i+1 {
			t.Fatalf("propose %d: %+v", i, resp)
		}
	}
	commit, err := sess.Commit(ctx)
	if err != nil || commit.Moved != 2 || commit.Committed != 3 {
		t.Fatalf("commit: %+v, %v", commit, err)
	}

	// An overload proposal is rejected and stages nothing.
	resp, err := sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "hog", WCET: 99, Deadline: 100, Period: 100}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Admitted || resp.Result.Verdict != "infeasible" || resp.Pending != 0 {
		t.Fatalf("overload proposal: %+v", resp)
	}

	// Stage one more, roll it back, and confirm the state reverts.
	if resp, err = sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "c", WCET: 1, Deadline: 100, Period: 100}),
	}); err != nil || !resp.Admitted {
		t.Fatalf("propose c: %+v, %v", resp, err)
	}
	rb, err := sess.Rollback(ctx)
	if err != nil || rb.Moved != 1 || rb.Committed != 3 {
		t.Fatalf("rollback: %+v, %v", rb, err)
	}
	state, _, err = sess.State(ctx)
	if err != nil || state.Committed != 3 || state.Pending != 0 {
		t.Fatalf("state after rollback: %+v, %v", state, err)
	}

	// Close, then every further touch is a 404.
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	var ce *client.Error
	if _, _, err := sess.State(ctx); !asClientError(err, &ce) || ce.StatusCode != 404 {
		t.Errorf("closed session: %v, want 404", err)
	}
}

// TestClientSessionIDEscaped checks that the typed client escapes a
// session id into its path: an id that extends a live one by '?', '#'
// or '/' names no session, so reading or closing it answers 404 and
// leaves the live session alone.
func TestClientSessionIDEscaped(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	h, _, err := c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	notFound := func(err error) bool {
		var ce *client.Error
		return errors.As(err, &ce) && ce.StatusCode == http.StatusNotFound
	}
	for _, suffix := range []string{"?x", "#x", "/x"} {
		s := c.Session(h.ID + suffix)
		if _, _, err := s.State(ctx); !notFound(err) {
			t.Errorf("State of session %q: %v, want 404", s.ID, err)
		}
		if err := s.Close(ctx); !notFound(err) {
			t.Errorf("Close of session %q: %v, want 404", s.ID, err)
		}
	}
	if _, _, err := h.State(ctx); err != nil {
		t.Fatalf("session %s after the escaped ids: %v", h.ID, err)
	}
}

// TestE2EBatch cross-checks the batch endpoint against the facade batch
// runner and exercises the cache on a repeated request.
func TestE2EBatch(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	sets := e2eSets(t, 6)
	req := service.BatchRequest{Analyzers: []string{"devi", "allapprox"}}
	for i, ts := range sets {
		req.Sets = append(req.Sets, service.WorkloadSet{Name: string(rune('a' + i)), Workload: edf.SporadicWorkload(ts)})
	}

	analyzers, err := edf.ParseAnalyzers("devi,allapprox")
	if err != nil {
		t.Fatal(err)
	}
	direct := edf.AnalyzeBatch(ctx, sets, analyzers, edf.Options{}, 0)

	resp, _, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(direct) {
		t.Fatalf("batch returned %d results, want %d", len(resp.Results), len(direct))
	}
	for i, jr := range resp.Results {
		if jr.Err != "" {
			t.Fatalf("job %d failed: %s", i, jr.Err)
		}
		if got, want := jr.Result.Verdict, direct[i].Result.Verdict.String(); got != want {
			t.Errorf("job %d: service %s, direct %s", i, got, want)
		}
		if jr.SetIndex != direct[i].SetIndex {
			t.Errorf("job %d: set index %d, want %d", i, jr.SetIndex, direct[i].SetIndex)
		}
	}

	// The same batch again must be served from the cache.
	resp2, _, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, jr := range resp2.Results {
		if jr.Cached {
			hits++
		}
		if got, want := jr.Result.Verdict, direct[i].Result.Verdict.String(); got != want {
			t.Errorf("cached job %d: service %s, direct %s", i, got, want)
		}
	}
	if hits != len(resp2.Results) {
		t.Errorf("repeat batch: %d/%d jobs cached", hits, len(resp2.Results))
	}
}

// TestE2EErrorsAndIntrospection covers the failure envelope and the
// read-only endpoints.
func TestE2EErrorsAndIntrospection(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	if err := c.Healthz(ctx); err != nil {
		t.Errorf("healthz: %v", err)
	}
	names, err := c.Analyzers(ctx)
	if err != nil || len(names) < 8 {
		t.Errorf("analyzers: %d, %v", len(names), err)
	}

	// Unknown analyzer -> 400 with a JSON error body.
	_, _, err = c.Analyze(ctx, service.AnalyzeRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 1, Deadline: 2, Period: 3}}),
		Analyzer: "no-such-test",
	})
	var ce *client.Error
	if !asClientError(err, &ce) || ce.StatusCode != 400 {
		t.Errorf("unknown analyzer: %v", err)
	}

	// Structurally invalid set -> 422.
	_, _, err = c.Analyze(ctx, service.AnalyzeRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 5, Deadline: 2, Period: 3}}),
	})
	if !asClientError(err, &ce) || ce.StatusCode != 422 {
		t.Errorf("invalid set: %v", err)
	}

	// Bad options -> 400.
	_, _, err = c.Analyze(ctx, service.AnalyzeRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 1, Deadline: 2, Period: 3}}),
		Options:  service.OptionsJSON{Arithmetic: "float32"},
	})
	if !asClientError(err, &ce) || ce.StatusCode != 400 {
		t.Errorf("bad options: %v", err)
	}

	// Empty batch -> 422.
	_, _, err = c.Batch(ctx, service.BatchRequest{})
	if !asClientError(err, &ce) || ce.StatusCode != 422 {
		t.Errorf("empty batch: %v", err)
	}

	// Metrics render the cache and request counters as text.
	if _, _, err := c.Analyze(ctx, service.AnalyzeRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 1, Deadline: 8, Period: 10}}),
	}); err != nil {
		t.Fatal(err)
	}
	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"edfd_requests_total", "edfd_cache_misses", "edfd_analyses_total",
		"edfd_sessions_active", "edfd_cache_hit_rate",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("metrics page missing %s:\n%s", want, page)
		}
	}
}

// TestE2EThrottleAndDeadline pins the concurrency limiter and the
// request deadline using a gated analyzer that blocks until released.
func TestE2EThrottleAndDeadline(t *testing.T) {
	// Both gates close at cleanup no matter how the test exits, so the
	// server can always drain its in-flight requests.
	registerGatedAnalyzers(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	t.Cleanup(func() { gateOnce.Do(func() { close(gate) }) })
	setGate("e2e-gated", gate)
	_, c := newTestServer(t, service.Config{
		MaxInFlight:    2,
		RequestTimeout: 200 * time.Millisecond,
	})
	ctx := context.Background()
	task := edf.TaskSet{{WCET: 1, Deadline: 8, Period: 10}}

	// Two gated requests occupy both slots...
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The gated job itself runs to completion once started; the
			// response arrives after the gate opens.
			if _, _, err := c.Analyze(ctx, service.AnalyzeRequest{
				Workload: edf.SporadicWorkload(task), Analyzer: "e2e-gated",
			}); err != nil {
				t.Errorf("gated analyze: %v", err)
			}
		}()
	}
	// ... wait until the metrics page confirms both are inside handlers
	// (no probe may race them for a slot before that) ...
	waitForInflight(t, c, 2)
	// ... so a third request bounces with 429 instead of queueing.
	_, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.SporadicWorkload(task)})
	var ce *client.Error
	if !asClientError(err, &ce) || ce.StatusCode != 429 {
		t.Fatalf("limiter did not engage: %v", err)
	}
	gateOnce.Do(func() { close(gate) })
	wg.Wait()

	// Deadline: a two-job batch on one worker with the first job gated
	// (fresh gate) runs job 0 after release but must skip job 1 with the
	// context error once the 200ms request deadline passes.
	gate2 := make(chan struct{})
	var gate2Once sync.Once
	t.Cleanup(func() { gate2Once.Do(func() { close(gate2) }) })
	setGate("e2e-gated-2", gate2)
	time.AfterFunc(2*time.Second, func() { gate2Once.Do(func() { close(gate2) }) })
	resp, _, err := c.Batch(ctx, service.BatchRequest{
		Sets:      []service.WorkloadSet{{Workload: edf.SporadicWorkload(task)}, {Workload: edf.SporadicWorkload(task)}},
		Analyzers: []string{"e2e-gated-2"},
		Workers:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("batch results: %d", len(resp.Results))
	}
	if resp.Results[0].Err != "" {
		t.Errorf("started job reported error: %s", resp.Results[0].Err)
	}
	if resp.Results[1].Err == "" {
		t.Error("second job ran despite the request deadline")
	}
}

// waitForInflight polls the metrics page (which bypasses the limiter)
// until edfd_requests_inflight reaches n.
func waitForInflight(t *testing.T, c *client.Client, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		page, err := c.Metrics(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for line := range strings.Lines(page) {
			if cur, ok := strings.CutPrefix(strings.TrimSpace(line), "edfd_requests_inflight "); ok {
				if v, err := strconv.Atoi(cur); err == nil && v >= n {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d:\n%s", n, page)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// gatedAnalyzer blocks every analysis until its current gate closes —
// the test's handle on server concurrency. The gate is looked up per
// call so repeated test runs (-count) can install fresh gates behind the
// once-only registry entry.
type gatedAnalyzer struct {
	name string
}

var (
	registerGatedOnce sync.Once
	gatesMu           sync.Mutex
	gates             = map[string]chan struct{}{}
)

func registerGatedAnalyzers(t *testing.T) {
	t.Helper()
	registerGatedOnce.Do(func() {
		for _, name := range []string{"e2e-gated", "e2e-gated-2"} {
			if err := edf.RegisterAnalyzer(gatedAnalyzer{name: name}); err != nil {
				t.Fatal(err)
			}
		}
	})
}

func setGate(name string, gate chan struct{}) {
	gatesMu.Lock()
	defer gatesMu.Unlock()
	gates[name] = gate
}

func (g gatedAnalyzer) Info() edf.AnalyzerInfo {
	return edf.AnalyzerInfo{Name: g.name, Label: g.name, Kind: edf.AnalyzerExact}
}

func (g gatedAnalyzer) Analyze(ts edf.TaskSet, opt edf.Options) edf.Result {
	gatesMu.Lock()
	gate := gates[g.name]
	gatesMu.Unlock()
	<-gate
	return edf.Exact(ts)
}

// asClientError unwraps a *client.Error.
func asClientError(err error, out **client.Error) bool {
	if err == nil {
		return false
	}
	ce, ok := err.(*client.Error)
	if ok {
		*out = ce
	}
	return ok
}
