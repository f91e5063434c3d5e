package rtc

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/eventstream"
	"repro/internal/model"
)

func TestLineAndCurveEval(t *testing.T) {
	c := Curve{Lines: []Line{
		{Intercept: 0, Slope: 2},
		{Intercept: 6, Slope: 0.5},
	}}
	cases := []struct{ x, want float64 }{
		{0, 0}, {2, 4}, {4, 8}, {8, 10}, {100, 56},
	}
	for _, tc := range cases {
		if got := c.Eval(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("Eval(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

func TestTaskCurveUpperBoundsDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for range 1000 {
		T := int64(2 + rng.Intn(30))
		C := 1 + rng.Int63n(T)
		D := C + rng.Int63n(2*T) // includes D > T
		task := model.Task{WCET: C, Deadline: D, Period: T}
		c := TaskCurve(task)
		src := demand.UniformFromTask(task)
		if err := VerifyCurve(c, src.DemandUpTo, 20*T+D); err != nil {
			t.Fatalf("task %v: %v", task, err)
		}
	}
}

func TestEventTaskCurveUpperBoundsDemand(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for range 300 {
		task := eventstream.Task{
			Stream:   eventstream.Burst(50+rng.Int63n(100), 1+rng.Intn(4), 2+rng.Int63n(8)),
			WCET:     1 + rng.Int63n(5),
			Deadline: 2 + rng.Int63n(25),
		}
		c := EventTaskCurve(task)
		if err := VerifyCurve(c, task.Dbf, 1000); err != nil {
			t.Fatalf("task %+v: %v", task, err)
		}
		if len(c.Lines) > 3 {
			t.Fatalf("curve uses %d segments, RTC caps at 3", len(c.Lines))
		}
	}
}

func TestCurveAddMatchesPointwiseSum(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for range 300 {
		t1 := model.Task{WCET: 1 + rng.Int63n(5), Deadline: 2 + rng.Int63n(10), Period: 12 + rng.Int63n(10)}
		t2 := model.Task{WCET: 1 + rng.Int63n(5), Deadline: 2 + rng.Int63n(10), Period: 12 + rng.Int63n(10)}
		if t1.Deadline < t1.WCET || t2.Deadline < t2.WCET {
			continue
		}
		a, b := TaskCurve(t1), TaskCurve(t2)
		sum := a.Add(b)
		for x := 0.0; x <= 200; x += 0.7 {
			want := a.Eval(x) + b.Eval(x)
			got := sum.Eval(x)
			if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
				t.Fatalf("sum(%v) = %v, want %v (tasks %v %v)", x, got, want, t1, t2)
			}
		}
	}
}

// TestSoundness: the RTC test never accepts a set the exact test rejects.
func TestSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for range 3000 {
		n := 1 + rng.Intn(5)
		ts := make(model.TaskSet, 0, n)
		for range n {
			T := int64(2 + rng.Intn(18))
			C := 1 + rng.Int63n(T)
			D := C + rng.Int63n(T-C+1)
			ts = append(ts, model.Task{WCET: C, Deadline: D, Period: T})
		}
		if Feasible(ts) != core.Feasible {
			continue
		}
		if core.ProcessorDemand(ts, core.Options{}).Verdict != core.Feasible {
			t.Fatalf("RTC accepted an infeasible set: %v", ts)
		}
	}
}

// TestWorseThanDeviExample pins the crafted example of the Section 3.6
// claim: the origin-anchored RTC curves reject a set Devi accepts, because
// at short intervals the chord through the origin overestimates demand
// (sum of C/D exceeds 1) while the demand itself is fine.
func TestWorseThanDeviExample(t *testing.T) {
	// τ1 has a tight deadline (chord slope 4/5), τ2 is implicit-deadline
	// (chord slope 0.3): the summed origin chords exceed capacity near
	// the first breakpoint (curve(5) = 5.5 > 5) although the set is
	// feasible and Devi accepts it.
	ts := model.TaskSet{
		{WCET: 4, Deadline: 5, Period: 100},
		{WCET: 30, Deadline: 100, Period: 100},
	}
	if v := core.Devi(ts).Verdict; v != core.Feasible {
		t.Fatalf("Devi should accept: %v", v)
	}
	if v := Feasible(ts); v == core.Feasible {
		t.Fatalf("RTC 2-segment approximation should reject (chords sum to 1.1x near 0)")
	}
	if v := core.ProcessorDemand(ts, core.Options{}).Verdict; v != core.Feasible {
		t.Fatalf("set should be feasible: %v", v)
	}
}

// TestStatisticallyWorseThanDevi verifies the §3.6 relationship in the
// aggregate: over many random sets, RTC acceptance never exceeds and
// typically trails Devi acceptance.
func TestStatisticallyWorseThanDevi(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	var deviAccepts, rtcAccepts, rtcAcceptsDeviRejects int
	for range 2000 {
		n := 2 + rng.Intn(8)
		ts := make(model.TaskSet, 0, n)
		for range n {
			T := int64(20 + rng.Intn(200))
			C := 1 + rng.Int63n(T/4)
			D := C + rng.Int63n(T-C+1)
			ts = append(ts, model.Task{WCET: C, Deadline: D, Period: T})
		}
		devi := core.Devi(ts).Verdict == core.Feasible
		rtc := Feasible(ts) == core.Feasible
		if devi {
			deviAccepts++
		}
		if rtc {
			rtcAccepts++
		}
		if rtc && !devi {
			rtcAcceptsDeviRejects++
		}
	}
	if rtcAccepts > deviAccepts {
		t.Errorf("RTC accepted more sets (%d) than Devi (%d); §3.6 expects the opposite",
			rtcAccepts, deviAccepts)
	}
	t.Logf("devi=%d rtc=%d rtc-only=%d of 2000", deviAccepts, rtcAccepts, rtcAcceptsDeviRejects)
}

// TestBurstCurveThreeSegments reproduces Figure 4b: a bursty task needs
// the third (burst-rate) segment for a good approximation — with it, the
// bursty gateway set is accepted; the periodic two-segment treatment of
// the same demand volume also passes, establishing the curves differ.
func TestBurstCurves(t *testing.T) {
	tasks := []eventstream.Task{
		{Stream: eventstream.Burst(1000, 3, 10), WCET: 30, Deadline: 200},
		{Stream: eventstream.Periodic(100), WCET: 20, Deadline: 90},
	}
	v := FeasibleEvents(tasks)
	if v != core.Feasible {
		t.Fatalf("bursty gateway rejected: %v", v)
	}
	// Cross-check against the exact test on the same streams.
	if got := core.ProcessorDemandSources(eventstream.Sources(tasks), core.Options{}); got.Verdict != core.Feasible {
		t.Fatalf("exact verdict: %v", got.Verdict)
	}
}

func TestFitsCapacityEdges(t *testing.T) {
	// Slope above 1 can never fit.
	c := Curve{Lines: []Line{{Intercept: 0, Slope: 1.2}}}
	if c.FitsCapacity() {
		t.Error("slope 1.2 accepted")
	}
	// Positive value at origin can never fit.
	c = Curve{Lines: []Line{{Intercept: 1, Slope: 0.5}}}
	if c.FitsCapacity() {
		t.Error("positive origin accepted")
	}
	// A benign curve fits.
	c = Curve{Lines: []Line{{Intercept: 0, Slope: 0.9}, {Intercept: 3, Slope: 0.2}}}
	if !c.FitsCapacity() {
		t.Error("benign curve rejected")
	}
}
