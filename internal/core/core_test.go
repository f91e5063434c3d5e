package core

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/model"
)

// bruteFeasible is the reference oracle: it checks dbf(I) <= I for every
// integer interval up to the feasibility bound. Only usable for small
// parameter ranges.
func bruteFeasible(t *testing.T, ts model.TaskSet) bool {
	t.Helper()
	if ts.OverUtilized() {
		return false
	}
	bound, _, ok := bounds.Best(ts)
	if !ok {
		t.Fatalf("no bound for %v", ts)
	}
	srcs := demand.FromTasks(ts)
	for I := int64(1); I < bound; I++ {
		if demand.Dbf(srcs, I) > I {
			return false
		}
	}
	return true
}

// randomSmallSet generates a task set with tiny parameters so the brute
// force oracle stays cheap.
func randomSmallSet(rng *rand.Rand) model.TaskSet {
	n := 1 + rng.Intn(5)
	ts := make(model.TaskSet, 0, n)
	for range n {
		T := int64(2 + rng.Intn(18))
		C := int64(1 + rng.Intn(int(T)))
		D := C + rng.Int63n(T-C+1) // C <= D <= T
		ts = append(ts, model.Task{WCET: C, Deadline: D, Period: T})
	}
	return ts
}

func verdictOf(r Result) Verdict { return r.Verdict }

func TestExactTestsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 3000 {
		ts := randomSmallSet(rng)
		want := Feasible
		if !bruteFeasible(t, ts) {
			want = Infeasible
		}
		checks := map[string]Result{
			"pd":          ProcessorDemand(ts, Options{}),
			"qpa":         QPA(ts, Options{}),
			"dynamic":     DynamicError(ts, Options{}),
			"allapprox":   AllApprox(ts, Options{}),
			"allapproxL":  AllApprox(ts, Options{RevisionOrder: ReviseLIFO}),
			"allapproxME": AllApprox(ts, Options{RevisionOrder: ReviseMaxError}),
		}
		for name, r := range checks {
			if got := verdictOf(r); got != want {
				t.Fatalf("case %d: %s verdict %v, want %v\nset: %v", i, name, got, want, ts)
			}
		}
	}
}

func TestSufficientTestsNeverOveraccept(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := range 3000 {
		ts := randomSmallSet(rng)
		exact := bruteFeasible(t, ts)
		for _, tc := range []struct {
			name string
			r    Result
		}{
			{"liu-layland", LiuLayland(ts)},
			{"devi", Devi(ts)},
			{"superpos1", SuperPos(ts, 1, Options{})},
			{"superpos2", SuperPos(ts, 2, Options{})},
			{"superpos5", SuperPos(ts, 5, Options{})},
		} {
			if tc.r.Verdict == Feasible && !exact {
				t.Fatalf("case %d: %s accepted infeasible set %v", i, tc.name, ts)
			}
			if tc.r.Verdict == Infeasible && exact {
				t.Fatalf("case %d: %s rejected feasible set %v", i, tc.name, ts)
			}
		}
	}
}

func TestDeviEqualsSuperPos1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := range 5000 {
		ts := randomSmallSet(rng)
		devi := Devi(ts)
		sp1 := SuperPos(ts, 1, Options{})
		if (devi.Verdict == Feasible) != (sp1.Verdict == Feasible) {
			t.Fatalf("case %d: Devi=%v SuperPos(1)=%v for %v", i, devi.Verdict, sp1.Verdict, ts)
		}
	}
}

func TestSuperPosLevelsNest(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := range 2000 {
		ts := randomSmallSet(rng)
		prevAccepted := false
		for level := int64(1); level <= 8; level++ {
			accepted := SuperPos(ts, level, Options{}).Verdict == Feasible
			if prevAccepted && !accepted {
				t.Fatalf("case %d: SuperPos(%d) rejected a set SuperPos(%d) accepted: %v",
					i, level, level-1, ts)
			}
			prevAccepted = accepted
		}
	}
}
