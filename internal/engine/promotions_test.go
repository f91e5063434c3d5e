package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/obs"
)

// primesAbove returns the first n primes above 2^31. Any two of them
// multiply past the chunk denominator cap, so a task set using them as
// periods needs one chunk per task — more than the plan allows — and
// every analysis falls back off the bounded-denominator fast path.
func primesAbove(n int) []int64 {
	isPrime := func(v int64) bool {
		for d := int64(3); d*d <= v; d += 2 {
			if v%d == 0 {
				return false
			}
		}
		return true
	}
	out := make([]int64, 0, n)
	for p := int64(1)<<31 + 1; len(out) < n; p += 2 {
		if isPrime(p) {
			out = append(out, p)
		}
	}
	return out
}

// unplannable builds a task set no chunk plan can cover. Its deadlines
// sit one time unit below the periods, which keeps liu-layland
// inconclusive, and Devi accepts it on its brackets.
func unplannable() model.TaskSet {
	var ts model.TaskSet
	for _, p := range primesAbove(33) {
		ts = append(ts, model.Task{WCET: 1, Deadline: p - 1, Period: p})
	}
	return ts
}

// unplannableTight is unplannable with the deadlines 2, 3, 3, 5, 6,
// ..., 34. Then dbf(t) <= t, so the set is feasible, but Devi's
// condition at the third task, 3 + 1/T1, exceeds D = 3: Devi rejects it
// on its brackets, and superpos, whose walk sums slopes on the chunk
// registers, decides it.
func unplannableTight() model.TaskSet {
	ts := unplannable()
	for i := range ts {
		ts[i].Deadline = int64(i + 2)
	}
	ts[2].Deadline = 3
	return ts
}

// TestCascadeStagePromotionAttribution pins the per-stage promotion
// accounting: on a workload that exceeds the chunk cap, the deciding
// stage reports its fast-path exits, and the stage log's total matches
// the scratch's monotonic tally. The liu stage only compares U with 1,
// and Devi decides this set's prefix conditions, on fixed-point
// brackets without a register, so neither records any.
func TestCascadeStagePromotionAttribution(t *testing.T) {
	sc := demand.NewScratch()
	var stages obs.StageLog
	res := MustGet("cascade").Analyze(unplannableTight(), core.Options{Scratch: sc, Stages: &stages})
	if res.Verdict != core.Feasible {
		t.Fatalf("verdict %s, want feasible", res.Verdict)
	}
	if stages.Len() < 2 {
		t.Fatalf("stage log has %d stages, want at least liu + the decider", stages.Len())
	}
	if got := stages.Promotions(); got == 0 {
		t.Fatalf("no stage recorded a promotion on an unplannable workload")
	} else if want := sc.ArithPromotions(); got != want {
		t.Fatalf("stage promotions sum %d, scratch tally %d", got, want)
	}
	if deciding := stages.Stage(stages.Len() - 1); deciding.Promotions == 0 {
		t.Fatalf("deciding stage %q recorded no promotions", deciding.Name)
	}
	if liu := stages.Stage(0); liu.Name != "liu" || liu.Promotions != 0 {
		t.Fatalf("first stage %q recorded %d promotions, want liu with 0", liu.Name, liu.Promotions)
	}
	if devi := stages.Stage(1); devi.Name != "devi" || devi.Verdict != core.NotAccepted.String() || devi.Promotions != 0 {
		t.Fatalf("second stage %q: %s with %d promotions, want devi not-accepted with 0", devi.Name, devi.Verdict, devi.Promotions)
	}

	// Devi accepts unplannable() on its brackets: no stage runs a
	// register, so the cascade records no promotions.
	stages.Reset()
	sc = demand.NewScratch()
	if res := MustGet("cascade").Analyze(unplannable(), core.Options{Scratch: sc, Stages: &stages}); res.Verdict != core.Feasible {
		t.Fatalf("unplannable verdict %s, want feasible", res.Verdict)
	}
	if deciding := stages.Stage(stages.Len() - 1); deciding.Name != "devi" {
		t.Fatalf("unplannable decided by %q, want devi", deciding.Name)
	}
	if got := stages.Promotions(); got != 0 || sc.ArithPromotions() != 0 {
		t.Fatalf("unplannable: stages recorded %d promotions, scratch %d, want 0", got, sc.ArithPromotions())
	}

	// Control: a plannable workload must attribute zero promotions.
	stages.Reset()
	plain := model.TaskSet{
		{WCET: 2, Deadline: 8, Period: 10},
		{WCET: 3, Deadline: 12, Period: 15},
	}
	if res := MustGet("cascade").Analyze(plain, core.Options{Scratch: demand.NewScratch(), Stages: &stages}); res.Verdict != core.Feasible {
		t.Fatalf("control verdict %s", res.Verdict)
	}
	if got := stages.Promotions(); got != 0 {
		t.Fatalf("plannable workload attributed %d promotions", got)
	}
}

// TestRunReportsJobPromotions pins the batch runner's per-job promotion
// delta: measured against the pooled worker scratch, non-zero exactly
// for the unplannable job that reaches a register walk.
func TestRunReportsJobPromotions(t *testing.T) {
	jobs := Batch(
		[]model.TaskSet{unplannableTight(), {{WCET: 2, Deadline: 8, Period: 10}}},
		[]Analyzer{MustGet("cascade")},
		core.Options{},
	)
	results := Run(context.Background(), jobs, RunOptions{Workers: 1})
	if results[0].Err != nil || results[1].Err != nil {
		t.Fatalf("job errors: %v, %v", results[0].Err, results[1].Err)
	}
	if results[0].Promotions == 0 {
		t.Fatalf("unplannable job reported zero promotions")
	}
	if results[1].Promotions != 0 {
		t.Fatalf("plannable job reported %d promotions", results[1].Promotions)
	}
}
