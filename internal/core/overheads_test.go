package core

import (
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/model"
)

func TestSRPBlockingFunction(t *testing.T) {
	ts := model.TaskSet{
		{WCET: 2, Deadline: 10, Period: 10, CriticalSection: 1},
		{WCET: 5, Deadline: 20, Period: 25, CriticalSection: 4},
		{WCET: 8, Deadline: 50, Period: 50, CriticalSection: 2},
		{WCET: 3, Deadline: 80, Period: 100},
	}
	b := SRPBlocking(ts)
	if b == nil {
		t.Fatal("nil blocking despite critical sections")
	}
	cases := []struct{ I, want int64 }{
		{0, 4},  // all critical sections can block
		{9, 4},  // deadlines 10,20,50 beyond: max(1,4,2)
		{10, 4}, // deadline 10 no longer blocks (D > I strictly)
		{19, 4},
		{20, 2}, // only the D=50 task can block
		{49, 2},
		{50, 0}, // nothing with a later deadline has a critical section
		{100, 0},
	}
	for _, c := range cases {
		if got := b(c.I); got != c.want {
			t.Errorf("B(%d) = %d, want %d", c.I, got, c.want)
		}
	}
	// Non-increasing everywhere.
	prev := b(0)
	for I := int64(1); I <= 120; I++ {
		cur := b(I)
		if cur > prev {
			t.Fatalf("B increased at %d: %d -> %d", I, prev, cur)
		}
		prev = cur
	}
	if SRPBlocking(model.TaskSet{{WCET: 1, Deadline: 5, Period: 5}}) != nil {
		t.Error("blocking function for a set without critical sections")
	}
}

func TestInflateOverheads(t *testing.T) {
	ts := model.TaskSet{{WCET: 2, Deadline: 10, Period: 10, SelfSuspension: 3}}
	out := InflateOverheads(ts, Overheads{ContextSwitch: 1})
	if out[0].WCET != 2+2+3 {
		t.Errorf("inflated WCET = %d, want 7", out[0].WCET)
	}
	if out[0].SelfSuspension != 0 {
		t.Error("self-suspension not consumed")
	}
	if ts[0].WCET != 2 {
		t.Error("input mutated")
	}
}

func TestContextSwitchFlipsTightSet(t *testing.T) {
	// Exactly schedulable without overhead; any context-switch cost breaks it.
	ts := model.TaskSet{
		{WCET: 5, Deadline: 10, Period: 10},
		{WCET: 5, Deadline: 10, Period: 10},
	}
	if r := AllApproxWithOverheads(ts, Overheads{}, Options{}); r.Verdict != Feasible {
		t.Fatalf("no overhead: %v", r.Verdict)
	}
	if r := AllApproxWithOverheads(ts, Overheads{ContextSwitch: 1}, Options{}); r.Verdict != Infeasible {
		t.Fatalf("with overhead: %v, want infeasible", r.Verdict)
	}
}

func TestBlockingFlipsTightSet(t *testing.T) {
	// The short-deadline task fits alone, but a long critical section of
	// the background task blocks it past its deadline.
	ts := model.TaskSet{
		{Name: "urgent", WCET: 3, Deadline: 4, Period: 20},
		{Name: "bulk", WCET: 8, Deadline: 40, Period: 40, CriticalSection: 2},
	}
	if r := AllApprox(ts, Options{}); r.Verdict != Feasible {
		t.Fatalf("ignoring blocking: %v", r.Verdict)
	}
	r := AllApproxWithOverheads(ts, Overheads{}, Options{})
	if r.Verdict != Infeasible {
		t.Fatalf("with blocking: %v, want infeasible (dbf(4)=3 > 4-2)", r.Verdict)
	}
	// Shrinking the critical section to 1 restores feasibility.
	ts[1].CriticalSection = 1
	if r := AllApproxWithOverheads(ts, Overheads{}, Options{}); r.Verdict != Feasible {
		t.Fatalf("with short blocking: %v", r.Verdict)
	}
}

// bruteFeasibleWithBlocking scans dbf(I) <= I - B(I) exhaustively.
func bruteFeasibleWithBlocking(t *testing.T, ts model.TaskSet) (bool, bool) {
	t.Helper()
	if ts.OverUtilized() {
		return false, true
	}
	srcs := demand.FromTasks(ts)
	bmax := maxCriticalSection(ts)
	var bound int64
	if ts.FullyUtilized() {
		b, _, ok := bounds.Best(ts)
		if !ok {
			return false, false
		}
		bound = b
	} else {
		b, ok := bounds.GeorgeWithBlocking(srcs, bmax)
		if !ok {
			return false, false
		}
		bound = b
	}
	if bound > 500000 {
		return false, false
	}
	blocking := SRPBlocking(ts)
	// The SRP criterion is evaluated at absolute deadlines only: below the
	// first deadline no job can be blocked, and between deadlines dbf is
	// constant while the capacity I - B(I) never shrinks.
	for I := int64(1); I < bound; I++ {
		isDeadline := false
		for _, s := range srcs {
			if s.JobsUpTo(I) != s.JobsUpTo(I-1) {
				isDeadline = true
				break
			}
		}
		if !isDeadline {
			continue
		}
		capacity := I
		if blocking != nil {
			capacity -= blocking(I)
		}
		if demand.Dbf(srcs, I) > capacity {
			return false, true
		}
	}
	return true, true
}

// TestOverheadTestsAgreeWithBruteForce cross-validates the blocking-aware
// exact tests against an exhaustive scan on random small sets with random
// critical sections.
func TestOverheadTestsAgreeWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	checked := 0
	for range 2500 {
		ts := randomSmallSet(rng)
		for i := range ts {
			if rng.Intn(2) == 0 {
				ts[i].CriticalSection = rng.Int63n(ts[i].WCET + 1)
			}
		}
		want, ok := bruteFeasibleWithBlocking(t, ts)
		if !ok {
			continue
		}
		checked++
		wantV := Feasible
		if !want {
			wantV = Infeasible
		}
		for name, r := range map[string]Result{
			"pd":      ProcessorDemandWithOverheads(ts, Overheads{}, Options{}),
			"all":     AllApproxWithOverheads(ts, Overheads{}, Options{}),
			"dynamic": DynamicErrorWithOverheads(ts, Overheads{}, Options{}),
		} {
			if r.Verdict != wantV {
				t.Fatalf("%s: %v, want %v for %v", name, r.Verdict, wantV, ts)
			}
		}
		// Devi with blocking must stay sufficient.
		if r := DeviWithOverheads(ts, Overheads{}); r.Verdict == Feasible && !want {
			t.Fatalf("devi-blocking accepted infeasible %v", ts)
		}
	}
	if checked < 1500 {
		t.Fatalf("only %d sets checked", checked)
	}
}

// TestOverheadReducesToPlainTests: without critical sections, suspension
// and switch costs the overhead-aware tests equal the plain ones.
func TestOverheadReducesToPlainTests(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for range 1000 {
		ts := randomSmallSet(rng)
		plain := AllApprox(ts, Options{})
		over := AllApproxWithOverheads(ts, Overheads{}, Options{})
		if plain.Verdict != over.Verdict || plain.Iterations != over.Iterations {
			t.Fatalf("overhead-aware differs on plain set: %v/%d vs %v/%d for %v",
				plain.Verdict, plain.Iterations, over.Verdict, over.Iterations, ts)
		}
	}
}

func TestQPARefusesBlocking(t *testing.T) {
	ts := model.TaskSet{{WCET: 1, Deadline: 5, Period: 5}}
	r := QPA(ts, Options{Blocking: func(int64) int64 { return 0 }})
	if r.Verdict != Undecided {
		t.Errorf("QPA with blocking: %v, want undecided", r.Verdict)
	}
}
