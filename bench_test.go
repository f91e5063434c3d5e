// Benchmarks regenerating every result of the paper's evaluation
// (Section 5). Each table and figure has a bench that runs the same
// experiment code as cmd/edfexp at a reduced but shape-preserving scale;
// custom metrics report the paper's effort measure (checked test
// intervals) next to wall-clock time. Run:
//
//	go test -bench=. -benchmem
//
// The full-scale regeneration lives in cmd/edfexp (-paper flag).
package edf_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	edf "repro"
	"repro/internal/core"
	"repro/internal/experiments"
)

// --- Table 1 ------------------------------------------------------------

// BenchmarkTable1 regenerates the paper's Table 1: checked test intervals
// per literature set for Devi, dynamic, all-approximated and processor
// demand.
func BenchmarkTable1(b *testing.B) {
	for _, ex := range edf.Examples() {
		b.Run(ex.Name, func(b *testing.B) {
			var res experiments.Table1Result
			for b.Loop() {
				res = experiments.Table1()
			}
			for _, row := range res.Rows {
				if row.Name != ex.Name {
					continue
				}
				for _, cell := range row.Cells {
					b.ReportMetric(float64(cell.Iterations), cell.Analyzer+"-intervals")
				}
			}
		})
	}
}

// --- Figure 1 -----------------------------------------------------------

// BenchmarkFig1 regenerates the acceptance-rate curves of Figure 1 at a
// reduced sample size and reports the acceptance rates at 94% utilization.
func BenchmarkFig1(b *testing.B) {
	cfg := experiments.Fig1Config{
		SetsPerPoint: 60,
		UtilPercents: []int{80, 88, 94, 98},
		Levels:       []int64{2, 3, 5, 10},
		NMin:         5, NMax: 50,
		Seed: 1,
	}
	var res experiments.Fig1Result
	for b.Loop() {
		res = experiments.Fig1(cfg)
	}
	for _, p := range res.Points {
		if p.UtilPercent != 94 {
			continue
		}
		b.ReportMetric(p.Devi, "devi-accept@94")
		b.ReportMetric(p.SuperPos[5], "sp5-accept@94")
		b.ReportMetric(p.PD, "pd-accept@94")
	}
}

// --- Figure 8 -----------------------------------------------------------

// BenchmarkFig8 regenerates the effort-over-utilization experiment of
// Figure 8 at a reduced sample size and reports the average intervals in
// the hardest bucket (99%).
func BenchmarkFig8(b *testing.B) {
	cfg := experiments.Fig8Config{Sets: 250, NMin: 5, NMax: 50, Seed: 1}
	var res experiments.Fig8Result
	for b.Loop() {
		res = experiments.Fig8(cfg)
	}
	for _, row := range res.Rows {
		if row.UtilPercent != 99 || row.Sets == 0 {
			continue
		}
		for _, e := range row.Efforts {
			b.ReportMetric(e.Avg, e.Analyzer+"-avg@99")
		}
	}
}

// --- Figure 9 -----------------------------------------------------------

// BenchmarkFig9 regenerates the period-ratio experiment of Figure 9 at a
// reduced scale (ratios up to 10^4 here; cmd/edfexp runs the full 10^6)
// and reports how the averages move with the ratio.
func BenchmarkFig9(b *testing.B) {
	cfg := experiments.Fig9Config{
		SetsPerRatio: 30,
		Ratios:       []int64{100, 10000},
		NMin:         5, NMax: 50,
		Seed: 1,
	}
	var res experiments.Fig9Result
	for b.Loop() {
		res = experiments.Fig9(cfg)
	}
	lo, hi := res.Rows[0], res.Rows[len(res.Rows)-1]
	for _, e := range lo.Efforts {
		b.ReportMetric(e.Avg, e.Analyzer+"-avg@100")
	}
	for _, e := range hi.Efforts {
		b.ReportMetric(e.Avg, e.Analyzer+"-avg@10000")
	}
}

// --- Single-set algorithm benchmarks -------------------------------------

// benchSet is a demanding random set shared by the per-algorithm benches.
func benchSet(b *testing.B, n int, u float64, ratio int64) edf.TaskSet {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	ts, err := edf.Generate(edf.GenConfig{
		N: n, Utilization: u,
		PeriodMin: 1000, PeriodMax: 1000 * ratio,
		LogUniformPeriods: true,
		GapMean:           0.25,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return ts
}

// BenchmarkAlgorithms compares the wall-clock cost of every registered
// analyzer on one high-utilization set with a large period ratio (the
// regime where the paper's tests shine). New analyzers benchmark
// themselves by registering with the engine.
func BenchmarkAlgorithms(b *testing.B) {
	ts := benchSet(b, 50, 0.97, 10000)
	opt := edf.Options{}
	for _, a := range edf.Analyzers() {
		b.Run(a.Info().Label, func(b *testing.B) {
			var r edf.Result
			for b.Loop() {
				r = a.Analyze(ts, opt)
			}
			b.ReportMetric(float64(r.Iterations), "intervals")
		})
	}
}

// BenchmarkAnalyzeBatch measures the batch engine on a production-shaped
// workload — many task sets through the recommended cascade — sequential
// versus one worker per CPU. The parallel run must scale with the worker
// pool; this is the acceptance benchmark of the engine layer.
func BenchmarkAnalyzeBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	sets := make([]edf.TaskSet, 120)
	for i := range sets {
		u := 0.85 + 0.14*float64(i)/float64(len(sets))
		ts, err := edf.Generate(edf.GenConfig{
			N: 30 + i%40, Utilization: u,
			PeriodMin: 1000, PeriodMax: 100000,
			GapMean: 0.25,
		}, rng)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = ts
	}
	analyzers, err := edf.ParseAnalyzers("cascade")
	if err != nil {
		b.Fatal(err)
	}
	opt := edf.Options{}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for b.Loop() {
				res := edf.AnalyzeBatch(context.Background(), sets, analyzers, opt, workers)
				for _, r := range res {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// --- Ablations ------------------------------------------------------------

// BenchmarkAblationArithmetic quantifies the cost of the big.Rat
// reference accumulators versus the default chunk registers in the
// all-approximated test (DESIGN.md: arithmetic modes).
func BenchmarkAblationArithmetic(b *testing.B) {
	ts := benchSet(b, 50, 0.97, 1000)
	for _, tc := range []struct {
		name string
		opt  edf.Options
	}{
		{"Exact", edf.Options{Arithmetic: edf.ArithExact}},
		{"BigRat", edf.Options{Arithmetic: edf.ArithBigRat}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for b.Loop() {
				edf.AllApprox(ts, tc.opt)
			}
		})
	}
}

// BenchmarkAblationRevisionOrder compares the revision strategies of the
// all-approximated test (DESIGN.md: the paper leaves the order open).
func BenchmarkAblationRevisionOrder(b *testing.B) {
	ts := benchSet(b, 60, 0.98, 1000)
	for _, tc := range []struct {
		name  string
		order core.RevisionOrder
	}{
		{"FIFO", core.ReviseFIFO},
		{"LIFO", core.ReviseLIFO},
		{"MaxError", core.ReviseMaxError},
	} {
		b.Run(tc.name, func(b *testing.B) {
			opt := edf.Options{RevisionOrder: tc.order}
			var r edf.Result
			for b.Loop() {
				r = edf.AllApprox(ts, opt)
			}
			b.ReportMetric(float64(r.Iterations), "intervals")
			b.ReportMetric(float64(r.Revisions), "revisions")
		})
	}
}

// BenchmarkAblationBounds compares the feasibility bounds as processor
// demand test horizons (Section 4.3: superposition <= George <= Baruah).
func BenchmarkAblationBounds(b *testing.B) {
	ts := benchSet(b, 40, 0.95, 100)
	for _, kind := range []edf.BoundKind{
		edf.BoundBaruah, edf.BoundGeorge, edf.BoundSuperposition,
	} {
		b.Run(string(kind), func(b *testing.B) {
			opt := edf.Options{Bound: kind}
			var r edf.Result
			for b.Loop() {
				r = edf.ProcessorDemand(ts, opt)
			}
			if r.Verdict == edf.Undecided {
				b.Skip("bound not applicable")
			}
			b.ReportMetric(float64(r.Iterations), "intervals")
			b.ReportMetric(float64(r.Bound), "bound")
		})
	}
}

// --- Micro benchmarks ------------------------------------------------------

// BenchmarkDbf measures a single demand bound function evaluation.
func BenchmarkDbf(b *testing.B) {
	ts := benchSet(b, 100, 0.9, 100)
	var sink int64
	I := int64(1_000_000)
	for b.Loop() {
		sink += edf.Dbf(ts, I)
	}
	_ = sink
}

// BenchmarkSimulate measures the EDF simulator on a 100-task set.
func BenchmarkSimulate(b *testing.B) {
	ts := benchSet(b, 100, 0.9, 10)
	for b.Loop() {
		if _, err := edf.Simulate(ts, edf.SimOptions{Horizon: 1_000_000}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerate measures task set generation.
func BenchmarkGenerate(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := edf.GenConfig{N: 100, Utilization: 0.95, PeriodMin: 1000, PeriodMax: 100000, GapMean: 0.3}
	for b.Loop() {
		if _, err := edf.Generate(cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWCRT measures Spuri's response time analysis (the independent
// exactness oracle) on a 20-task set.
func BenchmarkWCRT(b *testing.B) {
	ts := benchSet(b, 20, 0.9, 10)
	for b.Loop() {
		if _, ok := edf.WCRTAll(ts, edf.ResponseOptions{}); !ok {
			b.Fatal("analysis failed")
		}
	}
}

// BenchmarkSensitivityScaling measures the critical scaling factor search,
// the interactive design-space query motivating fast exact tests: each
// search evaluates the exact test ~30 times.
func BenchmarkSensitivityScaling(b *testing.B) {
	ts := benchSet(b, 30, 0.8, 100)
	var num int64
	for b.Loop() {
		var err error
		num, err = edf.CriticalScaling(ts, 1000, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(num)/1000, "alpha")
}

// BenchmarkAsyncExact measures the exact asynchronous replay analysis.
func BenchmarkAsyncExact(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	ts, err := edf.Generate(edf.GenConfig{
		N: 10, Utilization: 0.85, PeriodMin: 10, PeriodMax: 60, GapMean: 0.1,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	for i := range ts {
		ts[i].Phase = rng.Int63n(ts[i].Period)
	}
	for b.Loop() {
		res, err := edf.AsyncExact(ts, edf.AsyncOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Verdict == edf.Undecided {
			b.Fatal("undecided")
		}
	}
}

// BenchmarkRTCCompare regenerates the Section 3.6 comparison (real-time
// calculus curves vs Devi vs exact) at a reduced scale and reports the
// acceptance rates at 75% utilization.
func BenchmarkRTCCompare(b *testing.B) {
	cfg := experiments.RTCConfig{
		SetsPerPoint: 60,
		UtilPercents: []int{60, 75, 90},
		NMin:         5, NMax: 30,
		Seed: 1,
	}
	var res experiments.RTCResult
	for b.Loop() {
		res = experiments.RTCCompare(cfg)
	}
	for _, p := range res.Points {
		if p.UtilPercent != 75 {
			continue
		}
		b.ReportMetric(p.RTC, "rtc-accept@75")
		b.ReportMetric(p.Devi, "devi-accept@75")
		b.ReportMetric(p.Exact, "exact-accept@75")
	}
}

// BenchmarkOverheads measures the blocking-aware all-approximated test
// (SRP blocking + context switch charges).
func BenchmarkOverheads(b *testing.B) {
	ts := benchSet(b, 50, 0.9, 100)
	for i := range ts {
		if i%3 == 0 {
			ts[i].CriticalSection = max(ts[i].WCET/4, 1)
		}
	}
	ov := edf.Overheads{ContextSwitch: 2}
	opt := edf.Options{}
	for b.Loop() {
		edf.AllApproxWithOverheads(ts, ov, opt)
	}
}
