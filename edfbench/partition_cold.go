package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/workload"
)

// partitionCold sends distinct seeded partitioned workloads to one
// edfd's POST /v1/partition. It is the only workload that reaches the
// placement engine. Requests pin "workers": 1 so a placement verifies
// its bins on the calling request's goroutine: with two closed-loop
// clients on two cores a wider per-request pool would only oversubscribe
// the CPU and make a request's cost depend on its neighbour.
type partitionCold struct {
	wls, warmWls []workload.Workload
	ans          []partition.Placement
}

const warmPlacements = 150

func partitionedWorkloads(seed int64, stream int64, n int) []workload.Workload {
	rng := rngFor(seed, stream)
	out := make([]workload.Workload, n)
	for i := range out {
		out[i] = partitionedWorkload(rng, i)
	}
	return out
}

func (w *partitionCold) generate(seed int64, ops int) {
	w.wls = partitionedWorkloads(seed, streamTimed, ops)
	w.warmWls = partitionedWorkloads(warmCorpusSeed, streamWarm, warmPlacements)
}

func (w *partitionCold) boot(string) (*fleet, error) { return bootEdfd(1, nil) }

func (w *partitionCold) warm(ctx context.Context, _ *fleet, cs []*client.Client) error {
	return warmLoop(cs, len(w.warmWls), func(c *client.Client, j int) error {
		_, _, err := c.Partition(ctx, service.PartitionRequest{Workload: w.warmWls[j], Workers: 1})
		return err
	})
}

func (w *partitionCold) jobs() int              { return len(w.wls) }
func (w *partitionCold) requests() int          { return len(w.wls) }
func (w *partitionCold) firstRequest(j int) int { return j }
func (w *partitionCold) begin()                 { w.ans = make([]partition.Placement, len(w.wls)) }

func (w *partitionCold) do(ctx context.Context, c *caller, j int) {
	c.call(ctx, j, "partition", func(ctx context.Context) error {
		resp, _, err := c.c.Partition(ctx, service.PartitionRequest{Workload: w.wls[j], Workers: 1})
		w.ans[j] = resp.Placement
		return err
	})
}

// check: a feasible placement must assign every task exactly once,
// within its affinity, and every bin must be re-proved feasible by the
// exact processor-demand test under big.Rat arithmetic. An infeasible
// answer must carry a counterexample naming a real task and must be
// right: either the platform's exact demand exceeds its capacity, or the
// same heuristics run in-process over the exact test also fail, first on
// the same task (they are deterministic, so any bin verdict the cascade
// got wrong changes the outcome).
func (w *partitionCold) check(ph *phase) {
	pd := engine.MustGet("pd")
	runJobs(clients, 0, len(w.ans), func(_, j int) {
		if ph.failed[j] {
			return
		}
		if err := checkPlacement(pd, w.wls[j], w.ans[j]); err != nil {
			ph.fail(j, err)
		}
	})
}

func checkPlacement(pd engine.Analyzer, wl workload.Workload, pl partition.Placement) error {
	n := len(wl.PartTasks)
	overloaded := wl.Utilization().Cmp(wl.Capacity()) > 0
	if !pl.Feasible {
		ce := pl.Counterexample
		if ce == nil || ce.FailedTask < 0 || ce.FailedTask >= n {
			return errors.New("infeasible placement without a valid counterexample")
		}
		if overloaded {
			return nil
		}
		ref, err := partition.Place(context.Background(), wl, partition.Config{Analyzer: pd.Info().Name, Workers: 1})
		switch {
		case err != nil:
			return fmt.Errorf("reference placement: %w", err)
		case ref.Feasible:
			return fmt.Errorf("answered infeasible, but %s places it over the exact test", ref.Heuristic)
		case ref.Counterexample.FailedTask != ce.FailedTask:
			return fmt.Errorf("counterexample task %d, the exact test's placement fails on task %d",
				ce.FailedTask, ref.Counterexample.FailedTask)
		}
		return nil
	}
	if overloaded {
		return errors.New("feasible placement of a platform whose demand exceeds its capacity")
	}
	if len(pl.Assignment) != n || len(pl.Processors) != len(wl.Processors) {
		return fmt.Errorf("placement covers %d tasks on %d processors, want %d on %d",
			len(pl.Assignment), len(pl.Processors), n, len(wl.Processors))
	}
	seen := make([]bool, n)
	for p, rep := range pl.Processors {
		for _, t := range rep.Tasks {
			switch {
			case t < 0 || t >= n || seen[t]:
				return fmt.Errorf("task %d assigned twice or out of range", t)
			case pl.Assignment[t] != p:
				return fmt.Errorf("task %d listed on processor %d, assigned to %d", t, p, pl.Assignment[t])
			case !wl.PartTasks[t].Allows(p):
				return fmt.Errorf("task %d placed on processor %d outside its affinity", t, p)
			}
			seen[t] = true
		}
		if len(rep.Tasks) == 0 {
			continue
		}
		bin := partition.BinTasks(wl, p, rep.Tasks)
		if v := pd.Analyze(bin, core.Options{Arithmetic: core.ArithBigRat}).Verdict; v != core.Feasible {
			return fmt.Errorf("processor %d: bin of %d tasks is %s under exact analysis", p, len(rep.Tasks), v)
		}
	}
	for t, ok := range seen {
		if !ok {
			return fmt.Errorf("task %d never assigned", t)
		}
	}
	return nil
}

func (w *partitionCold) counts(m metricSet, _ *phase, _ map[string]float64) {
	var checks, hits, gates, feasible float64
	for _, pl := range w.ans {
		checks += float64(pl.Stats.BinChecks)
		hits += float64(pl.Stats.CacheHits)
		gates += float64(pl.Stats.GateRejections)
		if pl.Feasible {
			feasible++
		}
	}
	n := float64(len(w.ans))
	m["partition.bin_checks_per_op"] = checks / n
	m["partition.bin_cache_hit_share"] = ratio(hits, checks)
	m["partition.gate_rejections_per_op"] = gates / n
	m["partition.feasible_share"] = feasible / n
}

// binTimer is the cascade registered under its own name for the mirror:
// partition.Place resolves it like any analyzer, so every bin it verifies
// becomes a partition.bin_analyze span, with the cascade's stage spans
// under it, inside the current placement span. It also serves as the
// placement's cache, timing each read and write.
type binTimer struct {
	inner engine.Analyzer
	cache *service.Cache

	mu    sync.Mutex
	place opSpan
	tally *coreTally
	gets  int
}

const binTimerName = "edfbench-cascade"

// bins is process-wide because the engine registry holds it for the
// process's lifetime; mirror resets its per-run state.
var (
	registerOnce sync.Once
	bins         = &binTimer{inner: engine.MustGet("cascade")}
)

func (b *binTimer) Info() engine.Info {
	info := b.inner.Info()
	info.Name = binTimerName
	return info
}

func (b *binTimer) Analyze(ts model.TaskSet, opt core.Options) core.Result {
	var stages obs.StageLog
	opt.Stages = &stages
	t0 := time.Now().UnixNano()
	r := b.inner.Analyze(ts, opt)
	t1 := time.Now().UnixNano()
	b.mu.Lock()
	defer b.mu.Unlock()
	id := b.place.l.add(b.place.id, b.place.trace, "partition.bin_analyze", t0, t1)
	stageSpans(b.place.l, id, b.place.trace, &stages, t1)
	b.tally.record(&stages)
	return r
}

// Get and Put make binTimer the placement's partition.Cache. Every
// cacheable candidate bin is fingerprinted right before its Get.
func (b *binTimer) Get(key string) (core.Result, bool) {
	b.mu.Lock()
	place := b.place
	b.gets++
	b.mu.Unlock()
	var r core.Result
	var ok bool
	place.step("service.cache_get", func() { r, ok = b.cache.Get(key) })
	return r, ok
}

func (b *binTimer) Put(key string, r core.Result) {
	b.mu.Lock()
	place := b.place
	b.mu.Unlock()
	place.step("service.cache_put", func() { b.cache.Put(key, r) })
}

// mirrorPlacements caps the placements a mirror replays: each one
// records about a thousand spans (every candidate bin's analysis, stages
// and cache calls).
const mirrorPlacements = 120

// mirror replays the first placements through partition.Place with the
// timing analyzer and cache, plus the request's wire codecs and trace.
func (w *partitionCold) mirror(ctx context.Context, l *spanLog, t *coreTally) int {
	registerOnce.Do(func() {
		if err := engine.Register(bins); err != nil {
			panic(err) // the name is the benchmark's own; a clash is a bug
		}
	})
	bins.mu.Lock()
	bins.cache, bins.gets = service.NewCache(service.DefaultCacheCapacity), 0
	bins.mu.Unlock()
	rec := obs.NewRecorder(0)
	n := min(len(w.wls), mirrorPlacements)
	for j := range n {
		op := l.begin("m" + strconv.Itoa(j))
		var body []byte
		op.step("client.encode", func() {
			body, _ = json.Marshal(service.PartitionRequest{Workload: w.wls[j], Workers: 1})
		})
		var req service.PartitionRequest
		op.step("workload.decode", func() { _ = json.Unmarshal(body, &req) })
		op.step("workload.validate", func() { _ = req.Workload.Validate() })
		place := op.child("partition.place")
		bins.mu.Lock()
		bins.place, bins.tally = place, t
		bins.mu.Unlock()
		pl, _ := partition.Place(ctx, req.Workload, partition.Config{Analyzer: binTimerName, Workers: 1, Cache: bins})
		place.end()
		traceStep(op, rec, "partition")
		codec(op, service.PartitionResponse{Model: string(workload.Partitioned), Analyzer: "cascade", Placement: pl},
			&service.PartitionResponse{})
		op.end()
	}
	bins.mu.Lock()
	t.fingerprints += bins.gets
	bins.mu.Unlock()
	return n
}
