package core

// Allocation-regression tests: with a reused Scratch, the sporadic hot
// paths must run allocation-free in steady state. These pins are part of
// the PR-4 acceptance criteria — loosening them needs a BENCH_core.json
// story, not just a bigger constant.

import (
	"testing"

	"repro/internal/demand"
)

// TestProcessorDemandZeroAlloc pins 0 allocs/op for the exact processor
// demand test (including its bound computation) with a reused Scratch.
func TestProcessorDemandZeroAlloc(t *testing.T) {
	ts := benchGridSet(50, 95, 11)
	opt := Options{Scratch: demand.NewScratch()}
	if r := ProcessorDemand(ts, opt); !r.Verdict.Definite() {
		t.Fatalf("benchmark set must be decided, got %+v", r)
	}
	allocs := testing.AllocsPerRun(100, func() {
		ProcessorDemand(ts, opt)
	})
	if allocs != 0 {
		t.Fatalf("ProcessorDemand with reused Scratch allocates %.1f/op, want 0", allocs)
	}
}

// TestSuperPosZeroAlloc pins 0 allocs/op for the superposition test in
// default exact arithmetic with a reused Scratch.
func TestSuperPosZeroAlloc(t *testing.T) {
	ts := benchGridSet(50, 95, 11)
	opt := Options{Scratch: demand.NewScratch()}
	SuperPos(ts, 3, opt)
	allocs := testing.AllocsPerRun(100, func() {
		SuperPos(ts, 3, opt)
	})
	if allocs != 0 {
		t.Fatalf("SuperPos with reused Scratch allocates %.1f/op, want 0", allocs)
	}
}

// TestQPAZeroAlloc pins 0 allocs/op for QPA with a reused Scratch.
func TestQPAZeroAlloc(t *testing.T) {
	ts := benchGridSet(50, 95, 11)
	opt := Options{Scratch: demand.NewScratch()}
	QPA(ts, opt)
	allocs := testing.AllocsPerRun(100, func() {
		QPA(ts, opt)
	})
	if allocs != 0 {
		t.Fatalf("QPA with reused Scratch allocates %.1f/op, want 0", allocs)
	}
}

// TestSpreadZeroAlloc pins 0 allocs/op on the log-uniform spread set —
// the shape whose slope sums overflow a single int64 denominator. On the
// bounded-denominator chunk registers every analysis, its utilization
// check and its bound must stay allocation-free end to end.
func TestSpreadZeroAlloc(t *testing.T) {
	ts := benchSpreadSet(50, 95, 13)
	opt := Options{Scratch: demand.NewScratch()}
	if r := ProcessorDemand(ts, opt); !r.Verdict.Definite() {
		t.Fatalf("spread set must be decided, got %+v", r)
	}
	for name, run := range map[string]func(){
		"ProcessorDemand": func() { ProcessorDemand(ts, opt) },
		"SuperPos":        func() { SuperPos(ts, 3, opt) },
		"LiuLayland":      func() { LiuLaylandOpt(ts, opt) },
		"DynamicError":    func() { DynamicError(ts, opt) },
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs != 0 {
			t.Errorf("%s on the spread set allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestDeviZeroAlloc pins 0 allocs/op for Devi's sufficient test with a
// reused Scratch, on both the grid and the spread shape (the latter
// exercises the chunk-register prefix accumulators).
func TestDeviZeroAlloc(t *testing.T) {
	opt := Options{Scratch: demand.NewScratch()}
	grid := benchGridSet(50, 95, 11)
	spread := benchSpreadSet(50, 95, 13)
	DeviOpt(grid, opt)
	DeviOpt(spread, opt)
	if allocs := testing.AllocsPerRun(100, func() { DeviOpt(grid, opt) }); allocs != 0 {
		t.Errorf("Devi on the grid set allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { DeviOpt(spread, opt) }); allocs != 0 {
		t.Errorf("Devi on the spread set allocates %.1f/op, want 0", allocs)
	}
}

// TestSuperPosSourcesZeroAlloc covers the generic-source entry point used
// by event workloads (sources prebuilt, scratch reused).
func TestSuperPosSourcesZeroAlloc(t *testing.T) {
	ts := benchGridSet(50, 95, 11)
	scratch := demand.NewScratch()
	srcs := demand.FromTasks(ts)
	opt := Options{Scratch: scratch}
	SuperPosSources(srcs, 3, opt)
	allocs := testing.AllocsPerRun(100, func() {
		SuperPosSources(srcs, 3, opt)
	})
	if allocs != 0 {
		t.Fatalf("SuperPosSources with reused Scratch allocates %.1f/op, want 0", allocs)
	}
}
