package core

// Core analyzer benchmarks, the hot-path trend suite behind
// `make bench-core` / BENCH_core.json. They run the iterative tests with
// the default (exact) options — the configuration edfd and the admission
// controller use — on two fixed random set shapes:
//
//   - grid: periods drawn from a round {1,2,5}·10^k grid (the way real
//     systems pick periods), so rational slope arithmetic stays within
//     int64 and the tests exercise the allocation-free fast path.
//   - spread: log-uniform periods over four decades, the paper's
//     Figure 9 regime, where slope denominators overflow int64 and the
//     bounded-denominator chunk plan has to keep the walk exact and
//     allocation-free.
//
// The benchmark names are stable identifiers: BENCH_core.json records
// their ns/op and allocs/op across PRs. Every row gated at 0 bytes runs
// on one reused demand.Scratch, the configuration whose zero-allocation
// contract the gate states; a row on the pooled entry point (Options{},
// which borrows a Scratch from a sync.Pool that a GC may empty) is
// measured apart, in BenchmarkProcessorDemandPooled.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/model"
)

// benchGridPeriods is the round-period grid benchmark sets draw from.
var benchGridPeriods = []int64{
	1000, 2000, 5000,
	10000, 20000, 50000,
	100000, 200000, 500000,
	1000000, 2000000, 5000000,
}

// benchGridSet builds a deterministic n-task set with round periods and
// total utilization close to utilPct/100.
func benchGridSet(n int, utilPct int, seed int64) model.TaskSet {
	rng := rand.New(rand.NewSource(seed))
	return benchSetFromPeriods(n, utilPct, rng, func() int64 {
		return benchGridPeriods[rng.Intn(len(benchGridPeriods))]
	})
}

// benchSpreadSet builds a deterministic n-task set with log-uniform
// periods in [1000, 10^7], the arithmetic-overflow-prone shape.
func benchSpreadSet(n int, utilPct int, seed int64) model.TaskSet {
	rng := rand.New(rand.NewSource(seed))
	lo, hi := 3.0, 7.0 // 10^3 .. 10^7
	return benchSetFromPeriods(n, utilPct, rng, func() int64 {
		return int64(math.Pow(10, lo+rng.Float64()*(hi-lo)))
	})
}

// benchSetFromPeriods shares the utilization split and deadline-gap logic
// of the two set shapes.
func benchSetFromPeriods(n, utilPct int, rng *rand.Rand, period func() int64) model.TaskSet {
	// Random utilization split (UUniFast-style stick breaking).
	shares := make([]float64, n)
	sum := 0.0
	for i := range shares {
		shares[i] = 0.1 + rng.Float64()
		sum += shares[i]
	}
	target := float64(utilPct) / 100
	ts := make(model.TaskSet, 0, n)
	for i := range n {
		t := period()
		c := int64(shares[i] / sum * target * float64(t))
		if c < 1 {
			c = 1
		}
		gap := int64(float64(t-c) * 0.25 * rng.Float64())
		d := t - gap
		if d < c {
			d = c
		}
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// sinkResult keeps the compiler from eliding the analyzed result.
var sinkResult Result

// benchReused times analyze on one reused Scratch. A first run before the
// timed loop sizes the Scratch's buffers, so the loop measures the steady
// state the rows gated at 0 bytes describe: an analysis on a reused
// Scratch allocates nothing.
func benchReused(b *testing.B, analyze func(Options) Result) {
	opt := Options{Scratch: demand.NewScratch()}
	analyze(opt)
	b.ReportAllocs()
	for b.Loop() {
		sinkResult = analyze(opt)
	}
}

// BenchmarkSuperPos is the headline superposition benchmark: SuperPos(3)
// in default exact arithmetic on a 50-task, ~95%-utilization grid set.
func BenchmarkSuperPos(b *testing.B) {
	ts := benchGridSet(50, 95, 11)
	benchReused(b, func(opt Options) Result { return SuperPos(ts, 3, opt) })
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkSuperPosSpread runs SuperPos(3) on the overflow-prone
// log-uniform set, the worst case for int64 rational arithmetic.
func BenchmarkSuperPosSpread(b *testing.B) {
	ts := benchSpreadSet(50, 95, 13)
	benchReused(b, func(opt Options) Result { return SuperPos(ts, 3, opt) })
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkProcessorDemand is the headline exact-test benchmark: the
// processor demand test with its default best bound on the grid set.
func BenchmarkProcessorDemand(b *testing.B) {
	ts := benchGridSet(50, 95, 11)
	benchReused(b, func(opt Options) Result { return ProcessorDemand(ts, opt) })
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkProcessorDemandPooled runs BenchmarkProcessorDemand through
// the pooled entry point, Options{}: each analysis borrows a Scratch from
// demand's sync.Pool, and a GC that empties the pool makes the next
// borrow allocate a new one, so its bytes per op are not 0 in every run
// and the row has no 0-byte baseline.
func BenchmarkProcessorDemandPooled(b *testing.B) {
	ts := benchGridSet(50, 95, 11)
	b.ReportAllocs()
	for b.Loop() {
		sinkResult = ProcessorDemand(ts, Options{})
	}
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkProcessorDemandSpread runs the processor demand test on the
// log-uniform set.
func BenchmarkProcessorDemandSpread(b *testing.B) {
	ts := benchSpreadSet(50, 95, 13)
	benchReused(b, func(opt Options) Result { return ProcessorDemand(ts, opt) })
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkQPA benchmarks Quick Processor-demand Analysis on the grid set.
func BenchmarkQPA(b *testing.B) {
	ts := benchGridSet(50, 95, 11)
	benchReused(b, func(opt Options) Result { return QPA(ts, opt) })
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkAllApprox benchmarks the paper's all-approximated exact test
// in default exact arithmetic on the grid set.
func BenchmarkAllApprox(b *testing.B) {
	ts := benchGridSet(50, 95, 11)
	benchReused(b, func(opt Options) Result { return AllApprox(ts, opt) })
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkDynamicError benchmarks the paper's dynamic error test in
// default exact arithmetic on the grid set.
func BenchmarkDynamicError(b *testing.B) {
	ts := benchGridSet(50, 95, 11)
	benchReused(b, func(opt Options) Result { return DynamicError(ts, opt) })
	b.ReportMetric(float64(sinkResult.Iterations), "intervals")
}

// BenchmarkDevi benchmarks Devi's sufficient test, the cheapest cascade
// stage that does real per-task arithmetic.
func BenchmarkDevi(b *testing.B) {
	ts := benchGridSet(50, 95, 11)
	benchReused(b, func(opt Options) Result { return DeviOpt(ts, opt) })
}

// BenchmarkDeviSpread runs Devi's test on the log-uniform set with a
// reused Scratch: the shape whose chunk plan is the most expensive to
// build, which Devi skips wherever its brackets decide.
func BenchmarkDeviSpread(b *testing.B) {
	ts := benchSpreadSet(50, 95, 11)
	benchReused(b, func(opt Options) Result { return DeviOpt(ts, opt) })
}
