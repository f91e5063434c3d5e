package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestBatchDeterminism is the engine's ordering contract: the same batch
// through 1 worker and through N workers yields identical ordered results.
func TestBatchDeterminism(t *testing.T) {
	sets := randomSets(t, 40, 11)
	analyzers := MustParse("devi,allapprox,qpa,cascade")
	jobs := Batch(sets, analyzers, core.Options{})
	if len(jobs) != len(sets)*len(analyzers) {
		t.Fatalf("jobs = %d", len(jobs))
	}

	serial := Run(context.Background(), jobs, RunOptions{Workers: 1})
	parallel := Run(context.Background(), jobs, RunOptions{Workers: runtime.NumCPU()})
	if len(serial) != len(jobs) || len(parallel) != len(jobs) {
		t.Fatalf("results = %d / %d", len(serial), len(parallel))
	}
	for i := range jobs {
		s, p := serial[i], parallel[i]
		if s.SetIndex != jobs[i].SetIndex ||
			s.Analyzer.Info().Name != jobs[i].Analyzer.Info().Name {
			t.Fatalf("job %d: result out of order", i)
		}
		if s.Result != p.Result {
			t.Errorf("job %d (%s on set %d): serial %+v, parallel %+v",
				i, jobs[i].Analyzer.Info().Name, jobs[i].SetIndex, s.Result, p.Result)
		}
		if s.Err != nil || p.Err != nil {
			t.Errorf("job %d: unexpected error %v / %v", i, s.Err, p.Err)
		}
	}
}

func TestBatchTelemetry(t *testing.T) {
	sets := randomSets(t, 4, 3)
	results := Run(context.Background(), Batch(sets, MustParse("pd"), core.Options{}), RunOptions{})
	for i, r := range results {
		if r.Wall <= 0 {
			t.Errorf("job %d: no wall time recorded", i)
		}
		if r.Result.Iterations <= 0 {
			t.Errorf("job %d: no iteration telemetry", i)
		}
	}
}

func TestBatchCancellation(t *testing.T) {
	sets := randomSets(t, 64, 5)
	jobs := Batch(sets, MustParse("allapprox"), core.Options{})

	// Already-canceled context: nothing runs, every job reports the error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := Run(ctx, jobs, RunOptions{Workers: 4})
	if len(results) != len(jobs) {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("job %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Result.Verdict != core.Undecided {
			t.Errorf("job %d: skipped job has verdict %v", i, r.Result.Verdict)
		}
	}
}

func TestRunSetsGroups(t *testing.T) {
	sets := randomSets(t, 6, 17)
	analyzers := MustParse("devi,pd")
	grouped := RunSets(context.Background(), sets, analyzers, core.Options{}, RunOptions{})
	if len(grouped) != len(sets) {
		t.Fatalf("groups = %d", len(grouped))
	}
	for si, perSet := range grouped {
		if len(perSet) != len(analyzers) {
			t.Fatalf("set %d: %d results", si, len(perSet))
		}
		// Spot-check against direct invocation.
		want := analyzers[1].Analyze(sets[si], core.Options{})
		if perSet[1] != want {
			t.Errorf("set %d: grouped pd result %+v, direct %+v", si, perSet[1], want)
		}
	}
}
