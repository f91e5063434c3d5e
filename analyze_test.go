package edf_test

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	edf "repro"
)

func analyzeTestSets(t *testing.T, n int) []edf.TaskSet {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	sets := make([]edf.TaskSet, 0, n)
	for len(sets) < n {
		ts, err := edf.Generate(edf.GenConfig{
			N:           5 + rng.Intn(20),
			Utilization: 0.75 + rng.Float64()*0.24,
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

// TestAnalyzeMatchesExact pins the recommended entry point to the exact
// verdict.
func TestAnalyzeMatchesExact(t *testing.T) {
	for i, ts := range analyzeTestSets(t, 40) {
		got := edf.Analyze(ts, edf.Options{})
		want := edf.Exact(ts)
		if got.Verdict != want.Verdict {
			t.Errorf("set %d: Analyze=%v Exact=%v", i, got.Verdict, want.Verdict)
		}
	}
}

// TestAnalyzeBatchDeterministic is the facade-level ordering contract of
// the issue: 1 worker and NumCPU workers must produce identical ordered
// results.
func TestAnalyzeBatchDeterministic(t *testing.T) {
	sets := analyzeTestSets(t, 30)
	analyzers, err := edf.ParseAnalyzers("devi,allapprox,cascade")
	if err != nil {
		t.Fatal(err)
	}
	opt := edf.Options{}
	one := edf.AnalyzeBatch(context.Background(), sets, analyzers, opt, 1)
	many := edf.AnalyzeBatch(context.Background(), sets, analyzers, opt, runtime.NumCPU())
	if len(one) != len(sets)*len(analyzers) || len(many) != len(one) {
		t.Fatalf("result counts: %d / %d", len(one), len(many))
	}
	for i := range one {
		if one[i].Result != many[i].Result {
			t.Errorf("job %d: results differ across worker counts:\n%+v\n%+v",
				i, one[i].Result, many[i].Result)
		}
		if one[i].SetIndex != i/len(analyzers) {
			t.Errorf("job %d: set index %d out of order", i, one[i].SetIndex)
		}
	}
}

func TestAnalyzersRegistry(t *testing.T) {
	all := edf.Analyzers()
	if len(all) < 8 {
		t.Fatalf("registry too small: %d analyzers", len(all))
	}
	for _, name := range []string{"liu", "devi", "superpos", "pd", "qpa", "dynamic", "allapprox", "cascade"} {
		if _, ok := edf.AnalyzerByName(name); !ok {
			t.Errorf("missing builtin %q", name)
		}
	}
	if _, err := edf.ParseAnalyzers("no-such-test"); err == nil {
		t.Error("unknown analyzer accepted")
	}
	// Registering a clashing name must fail rather than shadow a builtin.
	devi, _ := edf.AnalyzerByName("devi")
	if err := edf.RegisterAnalyzer(devi); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestAnalyzeEvents(t *testing.T) {
	tasks := []edf.EventTask{
		{Stream: edf.PeriodicStream(10), WCET: 2, Deadline: 8},
		{Stream: edf.BurstStream(100, 3, 5), WCET: 4, Deadline: 40},
	}
	pd, _ := edf.AnalyzerByName("pd")
	res, ok := edf.AnalyzeEvents(pd, tasks, edf.Options{})
	if !ok {
		t.Fatal("pd lost event support")
	}
	want := edf.EventProcessorDemand(tasks, edf.Options{})
	if res != want {
		t.Errorf("AnalyzeEvents=%+v EventProcessorDemand=%+v", res, want)
	}

	cascade, _ := edf.AnalyzerByName("cascade")
	cres, ok := edf.AnalyzeEvents(cascade, tasks, edf.Options{})
	if !ok {
		t.Fatal("cascade lost event support")
	}
	if cres.Verdict != want.Verdict {
		t.Errorf("cascade on events: %v, exact %v", cres.Verdict, want.Verdict)
	}

	// QPA has no event path; the facade must say so instead of guessing.
	qpa, _ := edf.AnalyzerByName("qpa")
	if _, ok := edf.AnalyzeEvents(qpa, tasks, edf.Options{}); ok {
		t.Error("qpa claims event support")
	}
}
