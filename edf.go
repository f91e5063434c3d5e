// Package edf is a library for exact and approximate feasibility analysis
// of uniprocessor real-time systems under preemptive EDF scheduling.
//
// It reproduces Albers & Slomka, "Efficient Feasibility Analysis for
// Real-Time Systems with EDF Scheduling" (DATE 2005): the classic
// Liu-Layland and Devi sufficient tests, the exact processor demand test of
// Baruah et al., the superposition approximation SuperPos(x), and the
// paper's two new exact tests — the dynamic error test and the
// all-approximated test — which decide feasibility with orders of magnitude
// fewer test intervals than the processor demand test while matching the
// cost of the sufficient tests on task sets those can already decide.
//
// # Quick start
//
//	ts := edf.TaskSet{
//		{Name: "ctrl", WCET: 2, Deadline: 8, Period: 10},
//		{Name: "io", WCET: 3, Deadline: 15, Period: 15},
//	}
//	res := edf.Analyze(ts, edf.Options{})
//	fmt.Println(res.Verdict, res.Iterations)
//
// Analyze runs the paper's cheap-first escalation (sufficient tests, then
// the exact all-approximated test). Every test is also available directly
// (AllApprox, QPA, ...) or by name through the analysis engine registry
// (Analyzers, AnalyzerByName, ParseAnalyzers), and AnalyzeBatch fans many
// task sets out over a parallel worker pool with deterministic ordering.
//
// The iterative tests also run on Gresser event streams (EventTask /
// EventSources), the generalized activation model the paper names as the
// extension target. A preemptive EDF simulator (Simulate) provides replay
// and schedule traces, and the taskgen-backed Generate reproduces the
// random workloads of the paper's evaluation.
package edf

import (
	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
)

// Task is a sporadic task τ = (C, D, T, φ). See model.Task.
type Task = model.Task

// TaskSet is an ordered set of sporadic tasks. See model.TaskSet.
type TaskSet = model.TaskSet

// LoadTaskSet reads a task set from a JSON file (object with "tasks" or a
// bare task array) and validates it.
func LoadTaskSet(path string) (TaskSet, string, error) { return model.LoadFile(path) }

// Verdict is a feasibility test outcome.
type Verdict = core.Verdict

// Verdicts.
const (
	Feasible    = core.Feasible
	Infeasible  = core.Infeasible
	NotAccepted = core.NotAccepted
	Undecided   = core.Undecided
)

// Result reports the outcome and effort of a feasibility test.
type Result = core.Result

// Options tune the feasibility tests; the zero value selects exact
// arithmetic, FIFO revisions and no caps.
type Options = core.Options

// Arithmetic modes for the approximated accumulators. Both are exact and
// return bit-identical results. ArithExact (the default) runs on
// bounded-denominator int64 chunk registers with 128-bit intermediates
// that fall back to big.Rat only on overflow; ArithBigRat computes every
// fraction in big.Rat, the reference implementation.
const (
	ArithExact  = core.ArithExact
	ArithBigRat = core.ArithBigRat
)

// Scratch is reusable analysis working memory (test list, job counters,
// source adapters). Attach one to Options.Scratch and reuse it across
// calls to run the iterative tests allocation-free in steady state; a
// Scratch serves one analysis at a time and must not be shared between
// concurrent analyses. When Options.Scratch is nil the tests borrow from
// an internal pool.
type Scratch = demand.Scratch

// NewScratch returns an empty analysis Scratch.
func NewScratch() *Scratch { return demand.NewScratch() }

// Revision orders for the all-approximated test.
const (
	ReviseFIFO     = core.ReviseFIFO
	ReviseLIFO     = core.ReviseLIFO
	ReviseMaxError = core.ReviseMaxError
)

// LiuLayland applies the utilization-bound test (U <= 1, deadlines at or
// beyond periods).
func LiuLayland(ts TaskSet) Result { return core.LiuLayland(ts) }

// Devi applies Devi's sufficient test (Definition 1 of the paper).
func Devi(ts TaskSet) Result { return core.Devi(ts) }

// ProcessorDemand applies the exact processor demand test of Baruah et al.
func ProcessorDemand(ts TaskSet, opt Options) Result { return core.ProcessorDemand(ts, opt) }

// QPA applies Quick Processor-demand Analysis (Zhang & Burns, 2009), an
// exact post-paper baseline.
func QPA(ts TaskSet, opt Options) Result { return core.QPA(ts, opt) }

// SuperPos applies the superposition approximation SuperPos(level);
// SuperPos(1) is exactly Devi's test.
func SuperPos(ts TaskSet, level int64, opt Options) Result { return core.SuperPos(ts, level, opt) }

// SuperPosEpsilon applies the superposition test at the level matching a
// relative approximation error epsilon (the interface of Chakraborty et
// al.'s approximate schedulability analysis).
func SuperPosEpsilon(ts TaskSet, epsilon float64, opt Options) Result {
	return core.SuperPosEpsilon(ts, epsilon, opt)
}

// DynamicError applies the paper's dynamic error test: an exact test that
// adapts the superposition level on demand (Section 4.1).
func DynamicError(ts TaskSet, opt Options) Result { return core.DynamicError(ts, opt) }

// AllApprox applies the paper's all-approximated test: an exact test that
// approximates every task immediately and revises approximations only where
// the approximated demand exceeds the capacity (Section 4.2).
func AllApprox(ts TaskSet, opt Options) Result { return core.AllApprox(ts, opt) }

// Exact decides feasibility with the library default (the all-approximated
// test, the fastest exact test of the paper).
func Exact(ts TaskSet) Result { return core.AllApprox(ts, Options{}) }
