package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/workload"
)

// analyzeCold sends one never-repeating set per request to one edfd's
// POST /v1/analyze with the cascade, so every cache lookup misses and
// the paper's cascade is the largest single layer.
type analyzeCold struct {
	sets, warmSets []workload.Workload
	truth          []string // oracle verdicts, computed once per input
	ans            []analyzeAnswer
}

type analyzeAnswer struct {
	verdict string
	cached  bool
}

// warmAnalyses is the warm-up corpus size: enough to reach steady
// connection, pool and code-path state, small against the timed phase.
const warmAnalyses = 1000

func (w *analyzeCold) generate(seed int64, ops int) {
	w.sets = sporadicSets(rngFor(seed, streamTimed), ops)
	w.warmSets = sporadicSets(rngFor(warmCorpusSeed, streamWarm), warmAnalyses)
	w.truth = nil
}

func (w *analyzeCold) boot(string) (*fleet, error) { return bootEdfd(1, nil) }

func (w *analyzeCold) warm(ctx context.Context, _ *fleet, cs []*client.Client) error {
	return warmLoop(cs, len(w.warmSets), func(c *client.Client, j int) error {
		_, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: w.warmSets[j]})
		return err
	})
}

func (w *analyzeCold) jobs() int              { return len(w.sets) }
func (w *analyzeCold) requests() int          { return len(w.sets) }
func (w *analyzeCold) firstRequest(j int) int { return j }
func (w *analyzeCold) begin()                 { w.ans = make([]analyzeAnswer, len(w.sets)) }

func (w *analyzeCold) do(ctx context.Context, c *caller, j int) {
	c.call(ctx, j, "analyze", func(ctx context.Context) error {
		resp, _, err := c.c.Analyze(ctx, service.AnalyzeRequest{Workload: w.sets[j]})
		w.ans[j] = analyzeAnswer{resp.Result.Verdict, resp.Cached}
		return err
	})
}

// check: every verdict must equal the exact processor-demand test under
// big.Rat arithmetic, and no timed input may have been served from the
// cache.
func (w *analyzeCold) check(ph *phase) {
	if w.truth == nil {
		w.truth = exactVerdicts(taskSets(w.sets))
	}
	for j, a := range w.ans {
		if ph.failed[j] {
			continue
		}
		switch {
		case a.cached:
			ph.fail(j, errors.New("timed input served from the cache"))
		case a.verdict != w.truth[j]:
			ph.fail(j, fmt.Errorf("verdict %q, exact analysis says %q", a.verdict, w.truth[j]))
		}
	}
}

func (w *analyzeCold) counts(metricSet, *phase, map[string]float64) {}

// mirrorLimit caps the requests a mirror replays in-process. Mirrors
// replay a prefix of the timed requests: inputs are drawn independently
// per request, and the deterministic shape rotations (grid and spread
// periods, platform sizes) repeat every few requests, so a prefix covers
// them in their run-wide proportions where a stride could alias with them.
const mirrorLimit = 4000

// mirror replays the first timed inputs through the request path's public
// functions: encode, decode, validate, fingerprint, cache miss, the
// batch runner with a stage log, cache fill, trace recording, encode and
// decode of the reply.
func (w *analyzeCold) mirror(ctx context.Context, l *spanLog, t *coreTally) int {
	cascade := engine.MustGet("cascade")
	cache := service.NewCache(service.DefaultCacheCapacity)
	rec := obs.NewRecorder(0)
	n := min(len(w.sets), mirrorLimit)
	for j := range n {
		op := l.begin("m" + strconv.Itoa(j))
		analyzeMirror(ctx, op, w.sets[j], cascade, cache, rec, t)
		op.end()
	}
	return n
}

// analyzeMirror is one uncached /v1/analyze request, layer by layer.
func analyzeMirror(ctx context.Context, op opSpan, wl workload.Workload, a engine.Analyzer, cache *service.Cache, rec *obs.Recorder, t *coreTally) {
	var body []byte
	op.step("client.encode", func() { body, _ = json.Marshal(service.AnalyzeRequest{Workload: wl}) })
	var req service.AnalyzeRequest
	op.step("workload.decode", func() { _ = json.Unmarshal(body, &req) })
	op.step("workload.validate", func() { _ = req.Workload.Validate() })
	var fp string
	op.step("engine.fingerprint", func() { fp, _ = engine.WorkloadFingerprint(req.Workload, "cascade", core.Options{}) })
	op.step("service.cache_get", func() { cache.Get(fp) })
	var stages obs.StageLog
	var jr engine.JobResult
	run := op.step("engine.run", func() {
		jr = engine.Run(ctx, []engine.Job{{Workload: req.Workload, Analyzer: a, Opt: core.Options{Stages: &stages}}},
			engine.RunOptions{Workers: 1})[0]
	})
	stageSpans(op.l, run, op.trace, &stages, op.l.endOf(run))
	t.record(&stages)
	op.step("service.cache_put", func() { cache.Put(fp, jr.Result) })
	op.step("obs.trace", func() {
		tr := obs.StartTrace(op.trace, "analyze")
		tr.EndSpan("cache", time.Now(), "miss")
		stages.SpansInto(tr, time.Now())
		tr.EndSpan("analyze", time.Now(), jr.Result.Verdict.String())
		rec.Record(tr)
	})
	codec(op, service.AnalyzeResponse{
		Model: string(req.Workload.Kind()), Analyzer: a.Info().Name,
		Result: service.NewResultJSON(jr.Result), WallNS: jr.Wall.Nanoseconds(), Fingerprint: fp,
	}, &service.AnalyzeResponse{})
}
