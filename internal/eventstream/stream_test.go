package eventstream

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
)

func TestElementValidate(t *testing.T) {
	if err := (Element{Cycle: 10, Offset: 0}).Validate(); err != nil {
		t.Errorf("valid element rejected: %v", err)
	}
	if err := (Element{Cycle: -1}).Validate(); err == nil {
		t.Error("negative cycle accepted")
	}
	if err := (Element{Offset: -1}).Validate(); err == nil {
		t.Error("negative offset accepted")
	}
	if err := (Stream{}).Validate(); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestEventsPeriodic(t *testing.T) {
	s := Periodic(10)
	cases := []struct{ I, want int64 }{{0, 1}, {9, 1}, {10, 2}, {25, 3}}
	for _, c := range cases {
		if got := s.Events(c.I); got != c.want {
			t.Errorf("eta(%d) = %d, want %d", c.I, got, c.want)
		}
	}
}

func TestEventsBurst(t *testing.T) {
	// 3 events spaced 5, repeating every 100.
	s := Burst(100, 3, 5)
	cases := []struct{ I, want int64 }{
		{0, 1}, {4, 1}, {5, 2}, {10, 3}, {99, 3}, {100, 4}, {110, 6}, {200, 7},
	}
	for _, c := range cases {
		if got := s.Events(c.I); got != c.want {
			t.Errorf("eta(%d) = %d, want %d", c.I, got, c.want)
		}
	}
}

func TestEventsOneShot(t *testing.T) {
	s := Stream{{Cycle: 0, Offset: 5}}
	if got := s.Events(4); got != 0 {
		t.Errorf("eta(4) = %d, want 0", got)
	}
	if got := s.Events(5); got != 1 {
		t.Errorf("eta(5) = %d, want 1", got)
	}
	if got := s.Events(1000); got != 1 {
		t.Errorf("eta(1000) = %d, want 1", got)
	}
}

func TestTaskDbfMatchesSources(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for range 500 {
		task := Task{
			Stream:   Burst(50+rng.Int63n(200), 1+rng.Intn(4), 1+rng.Int63n(20)),
			WCET:     1 + rng.Int63n(9),
			Deadline: 1 + rng.Int63n(60),
		}
		srcs := Sources([]Task{task})
		for I := int64(0); I < 600; I += 1 + rng.Int63n(7) {
			if got, want := demand.Dbf(srcs, I), task.Dbf(I); got != want {
				t.Fatalf("dbf(%d): sources %d, task %d (%+v)", I, got, want, task)
			}
		}
	}
}

// TestSporadicEquivalence: a periodic stream task must behave identically
// to the sporadic task with the same parameters under every test.
func TestSporadicEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for range 1000 {
		T := int64(2 + rng.Intn(20))
		C := 1 + rng.Int63n(T)
		D := C + rng.Int63n(T-C+1)
		ts := model.TaskSet{{WCET: C, Deadline: D, Period: T},
			{WCET: 1, Deadline: 3, Period: 4}}
		if ts.Utilization().Cmp(ratOneForTest) >= 0 {
			continue
		}
		evTasks := []Task{
			{Stream: Periodic(T), WCET: C, Deadline: D},
			{Stream: Periodic(4), WCET: 1, Deadline: 3},
		}
		want := core.ProcessorDemand(ts, core.Options{}).Verdict
		if got := core.ProcessorDemandSources(Sources(evTasks), core.Options{}).Verdict; got != want {
			t.Fatalf("pd: stream %v, sporadic %v for %v", got, want, ts)
		}
		if got := core.AllApproxSources(Sources(evTasks), 0, core.Options{}).Verdict; got != want {
			t.Fatalf("allapprox: stream %v, want %v for %v", got, want, ts)
		}
		if got := core.DynamicErrorSources(Sources(evTasks), 0, core.Options{}).Verdict; got != want {
			t.Fatalf("dynamic: stream %v, want %v for %v", got, want, ts)
		}
	}
}

// TestBurstExactAgainstBrute cross-checks the iterative tests on bursty
// streams against a brute-force scan of the demand bound function.
func TestBurstExactAgainstBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	checked := 0
	for range 800 {
		tasks := []Task{
			{Stream: Burst(40+rng.Int63n(60), 2+rng.Intn(3), 2+rng.Int63n(5)),
				WCET: 1 + rng.Int63n(4), Deadline: 3 + rng.Int63n(20)},
			{Stream: Periodic(5 + rng.Int63n(10)), WCET: 1 + rng.Int63n(2),
				Deadline: 2 + rng.Int63n(8)},
			{Stream: Stream{{Cycle: 0, Offset: rng.Int63n(30)}},
				WCET: 1 + rng.Int63n(5), Deadline: 2 + rng.Int63n(10)},
		}
		srcs := Sources(tasks)
		pd := core.ProcessorDemandSources(srcs, core.Options{})
		if pd.Verdict == core.Undecided {
			continue
		}
		checked++
		// Brute force over the same bound.
		feasible := true
		for I := int64(1); I < pd.Bound; I++ {
			if demand.Dbf(srcs, I) > I {
				feasible = false
				break
			}
		}
		want := core.Feasible
		if !feasible {
			want = core.Infeasible
		}
		if pd.Verdict != want {
			t.Fatalf("pd %v, brute %v for %+v", pd.Verdict, want, tasks)
		}
		if got := core.AllApproxSources(srcs, 0, core.Options{}).Verdict; got != want {
			t.Fatalf("allapprox %v, brute %v for %+v", got, want, tasks)
		}
		if got := core.DynamicErrorSources(srcs, 0, core.Options{}).Verdict; got != want {
			t.Fatalf("dynamic %v, brute %v for %+v", got, want, tasks)
		}
		if got := core.SuperPosSources(srcs, 3, core.Options{}); got.Verdict == core.Feasible && want == core.Infeasible {
			t.Fatalf("superpos accepted infeasible stream set %+v", tasks)
		}
	}
	if checked < 400 {
		t.Fatalf("only %d stream sets checked", checked)
	}
}

func TestTaskValidate(t *testing.T) {
	for _, good := range []Task{
		{Stream: Periodic(10), WCET: 1, Deadline: 5},
		// The first deadline offset + deadline is exactly MaxInt64.
		{Stream: Stream{{Offset: math.MaxInt64 - 10}}, WCET: 3, Deadline: 10},
	} {
		if err := good.Validate(); err != nil {
			t.Errorf("valid task rejected: %v", err)
		}
	}
	for _, bad := range []Task{
		{Stream: Periodic(10), WCET: 0, Deadline: 5},
		{Stream: Periodic(10), WCET: 1, Deadline: 0},
		{Stream: Stream{}, WCET: 1, Deadline: 5},
		// offset + deadline overflows int64: the first deadline would
		// wrap negative.
		{Stream: Stream{{Offset: math.MaxInt64 - 4}}, WCET: 3, Deadline: 10},
		{Stream: Stream{{Cycle: 10}, {Cycle: 7, Offset: math.MaxInt64}}, WCET: 1, Deadline: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid task accepted: %+v", bad)
		}
	}
}

// ratOneForTest avoids importing math/big in multiple spots.
var ratOneForTest = model.TaskSet{{WCET: 1, Deadline: 1, Period: 1}}.Utilization()
