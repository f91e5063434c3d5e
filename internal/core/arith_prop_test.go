package core

// Property tests pinning the chunk-register default (ArithExact) to the
// big.Rat reference (ArithBigRat): both are exact, so every analyzer must
// produce bit-identical Results — verdict, iterations, revisions, level,
// failure interval and bound — on any workload, including parameter
// ranges that force the registers to promote into math/big.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/numeric"
)

// randomSporadicSet draws a set biased toward the decision boundary
// (utilizations around 0.8..1.05) over the given period range.
func randomSporadicSet(rng *rand.Rand, periodMax int64) model.TaskSet {
	n := rng.Intn(12) + 1
	ts := make(model.TaskSet, 0, n)
	for range n {
		t := rng.Int63n(periodMax-2) + 2
		c := rng.Int63n(max(t/int64(n)+1, 1)) + 1
		d := c + rng.Int63n(2*t)
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// randomEventTasks draws a small event-driven task set with mixed
// periodic, bursty and one-shot stream elements.
func randomEventTasks(rng *rand.Rand) []eventstream.Task {
	n := rng.Intn(6) + 1
	tasks := make([]eventstream.Task, 0, n)
	for range n {
		elems := rng.Intn(3) + 1
		stream := make(eventstream.Stream, 0, elems)
		for range elems {
			cycle := rng.Int63n(5000)
			if cycle > 0 && cycle < 100 {
				cycle += 100
			}
			stream = append(stream, eventstream.Element{
				Cycle:  cycle, // 0 = one-shot
				Offset: rng.Int63n(300),
			})
		}
		tasks = append(tasks, eventstream.Task{
			Stream:   stream,
			WCET:     rng.Int63n(40) + 1,
			Deadline: rng.Int63n(2000) + 1,
		})
	}
	return tasks
}

// compareResults fails unless the two results are identical in every
// reported field.
func compareResults(t *testing.T, what string, fast, ref Result) {
	t.Helper()
	if fast != ref {
		t.Fatalf("%s: fast arithmetic %+v != big.Rat reference %+v", what, fast, ref)
	}
}

// TestFastArithmeticMatchesBigRatSporadic runs every scalar-based
// analyzer on random sporadic sets under both exact arithmetic modes.
func TestFastArithmeticMatchesBigRatSporadic(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	ranges := []int64{20, 1000, 100000, 1 << 40}
	for i := range 320 {
		ts := randomSporadicSet(rng, ranges[i%len(ranges)])
		fast := Options{Arithmetic: ArithExact, MaxIterations: 200000}
		ref := Options{Arithmetic: ArithBigRat, MaxIterations: 200000}
		for _, level := range []int64{1, 3, 7} {
			compareResults(t, "superpos", SuperPos(ts, level, fast), SuperPos(ts, level, ref))
		}
		compareResults(t, "liu", LiuLaylandOpt(ts, fast), LiuLaylandOpt(ts, ref))
		compareResults(t, "devi", DeviOpt(ts, fast), DeviOpt(ts, ref))
		compareResults(t, "allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
		compareResults(t, "dynamic", DynamicError(ts, fast), DynamicError(ts, ref))
		// ProcessorDemand has no scalar accumulator, but its bound now
		// runs on fast arithmetic; pin it against itself across modes.
		compareResults(t, "pd", ProcessorDemand(ts, fast), ProcessorDemand(ts, ref))
	}
}

// TestFastArithmeticMatchesBigRatEvents does the same over event-stream
// workloads through the source-level entry points.
func TestFastArithmeticMatchesBigRatEvents(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for range 320 {
		tasks := randomEventTasks(rng)
		srcs := eventstream.Sources(tasks)
		fast := Options{Arithmetic: ArithExact, MaxIterations: 200000}
		ref := Options{Arithmetic: ArithBigRat, MaxIterations: 200000}
		compareResults(t, "superpos-sources",
			SuperPosSources(srcs, 4, fast), SuperPosSources(srcs, 4, ref))
		compareResults(t, "allapprox-sources",
			AllApproxSources(srcs, 0, fast), AllApproxSources(srcs, 0, ref))
		compareResults(t, "dynamic-sources",
			DynamicErrorSources(srcs, 0, fast), DynamicErrorSources(srcs, 0, ref))
		compareResults(t, "pd-sources",
			ProcessorDemandSources(srcs, fast), ProcessorDemandSources(srcs, ref))
	}
}

// spreadSet draws a set with log-uniform periods across the given number
// of decades above 1000 — the `edfgen -spread` shape whose wide period
// mix is what the bounded-denominator plan exists for — with utilization
// biased toward the decision boundary.
func spreadSet(rng *rand.Rand, decades int) model.TaskSet {
	n := rng.Intn(24) + 4
	lo := 3.0
	hi := lo + float64(decades)
	target := 0.8 + rng.Float64()*0.25
	ts := make(model.TaskSet, 0, n)
	for range n {
		t := int64(math.Pow(10, lo+rng.Float64()*(hi-lo)))
		c := int64(target / float64(n) * float64(t))
		if c < 1 {
			c = 1
		}
		d := c + rng.Int63n(t)
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// TestFastArithmeticMatchesBigRatSpread runs every analyzer on
// log-uniform spread corpora of 4, 6 and 8 decades under both exact
// arithmetic modes. These are the denominator-stress shapes the chunked
// fast path is built for; the reference must stay bit-identical whether
// an analysis runs on chunk registers or their big.Rat fallback.
func TestFastArithmeticMatchesBigRatSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fast := Options{Arithmetic: ArithExact, MaxIterations: 200000}
	ref := Options{Arithmetic: ArithBigRat, MaxIterations: 200000}
	for _, decades := range []int{4, 6, 8} {
		for range 80 {
			ts := spreadSet(rng, decades)
			for _, level := range []int64{1, 3, 7} {
				compareResults(t, "superpos", SuperPos(ts, level, fast), SuperPos(ts, level, ref))
			}
			compareResults(t, "liu", LiuLaylandOpt(ts, fast), LiuLaylandOpt(ts, ref))
			compareResults(t, "devi", DeviOpt(ts, fast), DeviOpt(ts, ref))
			compareResults(t, "allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
			compareResults(t, "dynamic", DynamicError(ts, fast), DynamicError(ts, ref))
			compareResults(t, "pd", ProcessorDemand(ts, fast), ProcessorDemand(ts, ref))
			compareResults(t, "qpa", QPA(ts, fast), QPA(ts, ref))
		}
	}
}

// capBoundaryPrimes returns n primes just above 2^31: any two multiply
// past the 2^62 chunk denominator cap, so each needs its own chunk and a
// set of n of them needs exactly n chunks.
func capBoundaryPrimes(n int) []int64 {
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

// TestChunkPlanCapBoundary pins both sides of the plan-capacity edge
// with directed sets: one prime per chunk at exactly the chunk budget
// (plannable, zero promotions) and one past it (every analysis falls
// off the fast path and counts promotions) — with bit-identical results
// against the big.Rat reference either way.
func TestChunkPlanCapBoundary(t *testing.T) {
	for _, tc := range []struct {
		name     string
		primes   int
		promoted bool
	}{
		{"at-cap", numeric.MaxChunks, false},
		{"past-cap", numeric.MaxChunks + 1, true},
	} {
		var ts model.TaskSet
		for _, p := range capBoundaryPrimes(tc.primes) {
			ts = append(ts, model.Task{WCET: 1, Deadline: p - 1, Period: p})
		}
		sc := demand.NewScratch()
		fast := Options{Arithmetic: ArithExact, Scratch: sc}
		ref := Options{Arithmetic: ArithBigRat}
		compareResults(t, tc.name+"/superpos", SuperPos(ts, 3, fast), SuperPos(ts, 3, ref))
		compareResults(t, tc.name+"/allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
		compareResults(t, tc.name+"/devi", DeviOpt(ts, fast), DeviOpt(ts, ref))
		if promoted := sc.ArithPromotions() > 0; promoted != tc.promoted {
			t.Fatalf("%s: promotions=%d, want promoted=%v",
				tc.name, sc.ArithPromotions(), tc.promoted)
		}
	}
}

// TestBigRatWalksOnReferencePlan pins where each stage computes under
// ArithBigRat on the past-cap prime set, which no chunk plan covers: the
// exact utilization sum is the one promotion a stage records against a
// fresh Scratch, and every accumulator walk after it runs on the math/big
// reference plan, whose promotions are not counted. Devi accepts the set
// and sums no utilization, since an accepting walk has shown U <= 1, so
// its walk records none.
func TestBigRatWalksOnReferencePlan(t *testing.T) {
	var ts model.TaskSet
	for _, p := range capBoundaryPrimes(numeric.MaxChunks + 1) {
		ts = append(ts, model.Task{WCET: 1, Deadline: p - 1, Period: p})
	}
	for _, tc := range []struct {
		name  string
		run   func(Options) Result
		promo uint64
	}{
		{"liu", func(o Options) Result { return LiuLaylandOpt(ts, o) }, 1},
		{"devi", func(o Options) Result { return DeviOpt(ts, o) }, 0},
		{"superpos(3)", func(o Options) Result { return SuperPos(ts, 3, o) }, 1},
		{"allapprox", func(o Options) Result { return AllApprox(ts, o) }, 1},
		{"dynamic", func(o Options) Result { return DynamicError(ts, o) }, 1},
	} {
		sc := demand.NewScratch()
		tc.run(Options{Arithmetic: ArithBigRat, Scratch: sc})
		if got := sc.ArithPromotions(); got != tc.promo {
			t.Errorf("%s: %d promotions under ArithBigRat, want %d", tc.name, got, tc.promo)
		}
	}
}

// overflowSet builds a set whose slope sum cannot be represented with an
// int64 denominator: huge pairwise-coprime periods that the chunk plan
// must keep in separate chunks.
func overflowSet(rng *rand.Rand) model.TaskSet {
	// Periods near 2^61 chosen coprime by construction (consecutive odd
	// offsets of a common huge base are pairwise coprime often enough;
	// verified below by the promotion assertion).
	base := int64(1) << 61
	n := 4
	ts := make(model.TaskSet, 0, n)
	for i := range n {
		t := base + int64(2*i+1) + rng.Int63n(64)*2
		c := t/int64(n) - rng.Int63n(1<<40)
		d := c + rng.Int63n(1<<50)
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// TestFastArithmeticOverflowFallback runs directed extreme-parameter sets
// whose utilization has no int64 denominator, checks that property
// actually holds, and requires bit-identical results anyway.
func TestFastArithmeticOverflowFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fallbacks := 0
	for range 40 {
		ts := overflowSet(rng)
		if u := ts.Utilization(); !u.Denom().IsInt64() {
			fallbacks++
		}
		fast := Options{Arithmetic: ArithExact, MaxIterations: 50000}
		ref := Options{Arithmetic: ArithBigRat, MaxIterations: 50000}
		compareResults(t, "superpos", SuperPos(ts, 3, fast), SuperPos(ts, 3, ref))
		compareResults(t, "allapprox", AllApprox(ts, fast), AllApprox(ts, ref))
		compareResults(t, "dynamic", DynamicError(ts, fast), DynamicError(ts, ref))
		compareResults(t, "pd", ProcessorDemand(ts, fast), ProcessorDemand(ts, ref))
	}
	if fallbacks == 0 {
		t.Fatalf("no overflow set has a utilization denominator beyond int64 — the directed cases lost their teeth")
	}
}

// TestProcessorDemandSourcesFullUtilization pins the documented U == 1
// contract of the generic-source processor demand test: a clean Undecided
// (no analyzer walk), while the task-set entry point still decides via
// its hyperperiod horizon.
func TestProcessorDemandSourcesFullUtilization(t *testing.T) {
	ts := model.TaskSet{
		{WCET: 2, Deadline: 3, Period: 4},
		{WCET: 1, Deadline: 2, Period: 2},
	}
	// U = 2/4 + 1/2 = 1 exactly.
	if got := demand.NewScratch().Util(demand.FromTasks(ts)).CmpInt(1); got != 0 {
		t.Fatalf("test set utilization cmp 1 = %d, want 0", got)
	}
	srcs := demand.FromTasks(ts)
	r := ProcessorDemandSources(srcs, Options{})
	if r.Verdict != Undecided || r.Iterations != 0 {
		t.Fatalf("ProcessorDemandSources(U==1) = %+v, want clean Undecided with 0 iterations", r)
	}
	// The task-set entry point knows the hyperperiod and stays decisive.
	if rt := ProcessorDemand(ts, Options{}); !rt.Verdict.Definite() {
		t.Fatalf("ProcessorDemand(U==1 task set) = %+v, want a definite verdict", rt)
	}
	// U > 1 still rejects outright.
	over := append(ts.Clone(), model.Task{WCET: 1, Deadline: 5, Period: 5})
	if r := ProcessorDemandSources(demand.FromTasks(over), Options{}); r.Verdict != Infeasible {
		t.Fatalf("ProcessorDemandSources(U>1) = %+v, want Infeasible", r)
	}
}

// TestOverflowSetSanity keeps the directed generator honest: its WCETs
// stay positive and below the period.
func TestOverflowSetSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for range 40 {
		for _, task := range overflowSet(rng) {
			if task.WCET <= 0 || task.WCET > task.Period || task.Deadline <= 0 {
				t.Fatalf("degenerate overflow task %+v", task)
			}
			if task.Period >= math.MaxInt64/2 {
				t.Fatalf("period overflows downstream math: %d", task.Period)
			}
		}
	}
}
