package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/workload"
)

// fleetHot replays repeat requests for a hot set through edfproxy over
// two edfd replicas. The hot set is analyzed once during set-up, so every
// timed request is a cache hit on its ring owner: the cost is decode,
// fingerprinting (twice: the proxy's route key and the replica's cache
// key), the cache read, trace recording, JSON and the proxy hop.
type fleetHot struct {
	replicas []string
	hot      []workload.Workload
	seq      []int // hot-set index per timed request
	verdicts []string
	owner    []string // ring owner per hot-set index
	exact    []string // exact verdict per hot-set index
	ans      []hotAnswer
}

type hotAnswer struct {
	verdict, replica string
	cached           bool
	attempts         int
}

// hotSetSize fits the replicas' caches with room to spare: the ring
// splits it about evenly, ~1k entries per 4096-entry cache, so no timed
// request can miss.
const hotSetSize = 2048

func (w *fleetHot) generate(seed int64, ops int) {
	w.hot = sporadicSets(rngFor(seed, streamWarm), hotSetSize)
	rng := rngFor(seed, streamTimed)
	w.seq = make([]int, ops)
	for i := range w.seq {
		w.seq[i] = rng.Intn(hotSetSize)
	}
}

func (w *fleetHot) boot(string) (*fleet, error) {
	f, err := bootEdfd(2, nil)
	if err != nil {
		return nil, err
	}
	if err := f.bootProxy(); err != nil {
		f.close()
		return nil, err
	}
	w.replicas, w.owner = f.replicas, nil
	return f, nil
}

// warm fills the replica caches with the whole hot set through the proxy
// and keeps each verdict as the reference for the timed replies.
func (w *fleetHot) warm(ctx context.Context, _ *fleet, cs []*client.Client) error {
	w.verdicts = make([]string, len(w.hot))
	return warmLoop(cs, len(w.hot), func(c *client.Client, j int) error {
		resp, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: w.hot[j]})
		w.verdicts[j] = resp.Result.Verdict
		return err
	})
}

func (w *fleetHot) jobs() int              { return len(w.seq) }
func (w *fleetHot) requests() int          { return len(w.seq) }
func (w *fleetHot) firstRequest(j int) int { return j }
func (w *fleetHot) begin()                 { w.ans = make([]hotAnswer, len(w.seq)) }

func (w *fleetHot) do(ctx context.Context, c *caller, j int) {
	c.call(ctx, j, "analyze", func(ctx context.Context) error {
		resp, rt, err := c.c.Analyze(ctx, service.AnalyzeRequest{Workload: w.hot[w.seq[j]]})
		w.ans[j] = hotAnswer{resp.Result.Verdict, rt.Replica, resp.Cached, rt.Attempts}
		return err
	})
}

// reference computes each hot workload's exact verdict, once, and its
// ring owner, once per fleet, independently of the proxy: a fresh ring
// over the same replicas, keyed by the workload fingerprint under the
// empty analyzer and zero options.
func (w *fleetHot) reference() {
	if w.exact == nil {
		w.exact = exactVerdicts(taskSets(w.hot))
	}
	if w.owner != nil {
		return
	}
	ring := cluster.NewRing(0)
	for _, r := range w.replicas {
		ring.Add(r)
	}
	w.owner = make([]string, len(w.hot))
	for i, wl := range w.hot {
		fp, _ := engine.WorkloadFingerprint(wl, "", core.Options{})
		w.owner[i] = ring.Get(fp)
	}
}

// check: every reply must come from the cache, carry the warm-up verdict,
// which must equal the exact verdict, and be served by the ring owner.
func (w *fleetHot) check(ph *phase) {
	w.reference()
	for j, a := range w.ans {
		if ph.failed[j] {
			continue
		}
		h := w.seq[j]
		switch {
		case !a.cached:
			ph.fail(j, fmt.Errorf("hot workload %d was not served from the cache", h))
		case a.verdict != w.verdicts[h]:
			ph.fail(j, fmt.Errorf("hot workload %d: verdict %q, warm-up said %q", h, a.verdict, w.verdicts[h]))
		case a.verdict != w.exact[h]:
			ph.fail(j, fmt.Errorf("hot workload %d: cached verdict %q, exact analysis says %q", h, a.verdict, w.exact[h]))
		case a.replica != w.owner[h]:
			ph.fail(j, fmt.Errorf("hot workload %d served by %s, ring owner is %s", h, a.replica, w.owner[h]))
		}
	}
}

func (w *fleetHot) counts(m metricSet, ph *phase, _ map[string]float64) {
	var owned, failovers float64
	for j, a := range w.ans {
		if !ph.failed[j] && a.replica == w.owner[w.seq[j]] {
			owned++
		}
		failovers += float64(max(a.attempts-1, 0))
	}
	m["cluster.owner_hit_share"] = owned / float64(len(w.ans))
	m["cluster.failovers_per_op"] = failovers / float64(len(w.ans))
}

// hopSamples is how many hot requests the hop measurement sends both
// through the proxy and straight to the owner replica.
const hopSamples = 2000

// hop measures the proxy hop: the same cached request through edfproxy
// and direct to its owner, alternating which goes first, as the
// difference of the two median latencies in microseconds.
func (w *fleetHot) hop(ctx context.Context, s *setup, l *spanLog) float64 {
	direct := map[string]*client.Client{}
	for _, r := range s.f.replicas {
		direct[r], _ = newClient(r)
	}
	var via, dir []int64
	send := func(c *client.Client, name string, wl workload.Workload) int64 {
		t0 := time.Now()
		if _, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: wl}); err != nil {
			return -1
		}
		t1 := time.Now()
		l.add(-1, "", name, t0.UnixNano(), t1.UnixNano())
		return t1.Sub(t0).Nanoseconds()
	}
	for k, h := range w.seq[:min(len(w.seq), hopSamples)] {
		pair := [2]func(){
			func() {
				if d := send(s.cs[0], "cluster.via_proxy", w.hot[h]); d >= 0 {
					via = append(via, d)
				}
			},
			func() {
				if d := send(direct[w.owner[h]], "cluster.direct", w.hot[h]); d >= 0 {
					dir = append(dir, d)
				}
			},
		}
		pair[k%2]()
		pair[1-k%2]()
	}
	return float64(percentile(via, 0.5)-percentile(dir, 0.5)) / 1e3
}

// mirror replays the first timed requests through the public functions of
// the hit path: the proxy's decode and route fingerprint and its trace,
// then the replica's decode, validation, cache-key fingerprint, cache
// read, trace and reply encoding, and the client's decode.
func (w *fleetHot) mirror(_ context.Context, l *spanLog, t *coreTally) int {
	cache := service.NewCache(service.DefaultCacheCapacity)
	for i, wl := range w.hot {
		fp, _ := engine.WorkloadFingerprint(wl, "cascade", core.Options{})
		cache.Put(fp, core.Result{Verdict: verdictOf(w.verdicts[i])})
	}
	proxyRec, replicaRec := obs.NewRecorder(0), obs.NewRecorder(0)
	n := min(len(w.seq), mirrorLimit)
	for j := range n {
		op := l.begin("m" + strconv.Itoa(j))
		wl := w.hot[w.seq[j]]
		var body []byte
		op.step("client.encode", func() { body, _ = json.Marshal(service.AnalyzeRequest{Workload: wl}) })
		var preq service.AnalyzeRequest
		op.step("workload.decode", func() { _ = json.Unmarshal(body, &preq) })
		op.step("engine.fingerprint", func() { engine.WorkloadFingerprint(preq.Workload, "", core.Options{}) })
		op.step("obs.trace", func() {
			tr := obs.StartTrace(op.trace, "analyze")
			tr.EndSpan("route", time.Now(), "")
			tr.EndSpan("forward", time.Now(), "")
			proxyRec.Record(tr)
		})
		var req service.AnalyzeRequest
		op.step("workload.decode", func() { _ = json.Unmarshal(body, &req) })
		op.step("workload.validate", func() { _ = req.Workload.Validate() })
		var fp string
		op.step("engine.fingerprint", func() { fp, _ = engine.WorkloadFingerprint(req.Workload, "cascade", core.Options{}) })
		var res core.Result
		op.step("service.cache_get", func() { res, _ = cache.Get(fp) })
		op.step("obs.trace", func() {
			tr := obs.StartTrace(op.trace, "analyze")
			tr.EndSpan("cache", time.Now(), "hit")
			replicaRec.Record(tr)
		})
		codec(op, service.AnalyzeResponse{
			Model: string(req.Workload.Kind()), Analyzer: "cascade",
			Result: service.NewResultJSON(res), Cached: true, Fingerprint: fp,
		}, &service.AnalyzeResponse{})
		op.end()
	}
	return n
}

// verdictOf parses a wire verdict.
func verdictOf(s string) core.Verdict {
	for _, v := range []core.Verdict{core.Feasible, core.Infeasible, core.NotAccepted} {
		if v.String() == s {
			return v
		}
	}
	return core.Undecided
}
