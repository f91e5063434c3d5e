package core

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/taskgen"
)

// TestAgreementOnRealisticSets runs the exactness agreement on larger,
// realistically parameterized sets (up to 40 tasks, periods to 100k,
// utilizations to 99%), where brute force is impossible but the four exact
// tests must still agree with each other.
func TestAgreementOnRealisticSets(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for i := range 300 {
		n := 5 + rng.Intn(36)
		u := 0.85 + rng.Float64()*0.14
		gap := rng.Float64() * 0.4
		ts, err := taskgen.New(taskgen.Config{
			N: n, Utilization: u,
			PeriodMin: 100, PeriodMax: 100000,
			LogUniformPeriods: i%2 == 0,
			GapMean:           gap / 2,
		}, rng)
		if err != nil || ts.OverUtilized() {
			continue
		}
		pd := ProcessorDemand(ts, Options{})
		if pd.Verdict == Undecided {
			continue
		}
		for name, r := range map[string]Result{
			"qpa":     QPA(ts, Options{}),
			"dynamic": DynamicError(ts, Options{}),
			"all":     AllApprox(ts, Options{}),
		} {
			if r.Verdict != pd.Verdict {
				t.Fatalf("case %d: %s=%v pd=%v (n=%d u=%.3f)\n%v",
					i, name, r.Verdict, pd.Verdict, n, u, ts)
			}
		}
	}
}

// TestEffortAdvantageOnRealisticSets pins the paper's performance claim in
// the aggregate on realistic workloads: summed over high-utilization sets,
// the new tests check far fewer intervals than the processor demand test.
func TestEffortAdvantageOnRealisticSets(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	var pdSum, dynSum, allSum int64
	sets := 0
	for sets < 120 {
		n := 5 + rng.Intn(46)
		ts, err := taskgen.New(taskgen.Config{
			N: n, Utilization: 0.92 + rng.Float64()*0.07,
			PeriodMin: 1000, PeriodMax: 1000000,
			LogUniformPeriods: true,
			GapMean:           0.2,
		}, rng)
		if err != nil || ts.OverUtilized() {
			continue
		}
		sets++
		opt := Options{}
		pdSum += ProcessorDemand(ts, opt).Iterations
		dynSum += DynamicError(ts, opt).Iterations
		allSum += AllApprox(ts, opt).Iterations
	}
	if pdSum < 5*dynSum || pdSum < 5*allSum {
		t.Errorf("aggregate effort: pd=%d dyn=%d all=%d — advantage below 5x",
			pdSum, dynSum, allSum)
	}
	t.Logf("aggregate over %d sets: pd=%d dyn=%d all=%d (ratios %.1fx / %.1fx)",
		sets, pdSum, dynSum, allSum,
		float64(pdSum)/float64(dynSum), float64(pdSum)/float64(allSum))
}

// TestSourcesAndTaskSetAPIsAgree pins that the []Uniform entry points and
// the TaskSet wrappers count identically.
func TestSourcesAndTaskSetAPIsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for range 500 {
		ts := randomSmallSet(rng)
		if ts.Utilization().Cmp(big.NewRat(1, 1)) >= 0 {
			continue
		}
		srcs := demand.FromTasks(ts)
		a := AllApprox(ts, Options{})
		b := AllApproxSources(srcs, 0, Options{})
		if a.Verdict != b.Verdict || a.Iterations != b.Iterations || a.Revisions != b.Revisions {
			t.Fatalf("allapprox APIs disagree: %+v vs %+v for %v", a, b, ts)
		}
		d1 := DynamicError(ts, Options{})
		d2 := DynamicErrorSources(srcs, 0, Options{})
		if d1.Verdict != d2.Verdict || d1.Iterations != d2.Iterations {
			t.Fatalf("dynamic APIs disagree: %+v vs %+v for %v", d1, d2, ts)
		}
	}
}
