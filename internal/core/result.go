package core

import (
	"fmt"

	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/obs"
)

// Verdict is the outcome of a feasibility test.
type Verdict uint8

const (
	// Feasible: every deadline is met under preemptive EDF.
	Feasible Verdict = iota
	// Infeasible: some deadline is missed; exact tests and over-utilized
	// sets yield this verdict, and sufficient tests yield it only when
	// they witness an exact violation.
	Infeasible
	// NotAccepted: a sufficient test could not accept the set; the set may
	// still be feasible.
	NotAccepted
	// Undecided: a resource cap (Options.MaxIterations, Options.MaxLevel,
	// or an int64 overflow in a bound) stopped the test first.
	Undecided
)

// String renders the verdict.
func (v Verdict) String() string {
	switch v {
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case NotAccepted:
		return "not-accepted"
	case Undecided:
		return "undecided"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// Definite reports whether the verdict settles feasibility.
func (v Verdict) Definite() bool { return v == Feasible || v == Infeasible }

// Result reports the outcome and effort of a feasibility test.
type Result struct {
	Verdict Verdict
	// Iterations is the number of checked test intervals, the effort
	// metric of the paper's evaluation (Section 5). For Devi it is the
	// number of per-task conditions evaluated.
	Iterations int64
	// Revisions is the number of per-task approximation revisions the new
	// tests performed (zero for the classic tests).
	Revisions int64
	// MaxLevel is the highest superposition level reached (DynamicError),
	// or the fixed level for SuperPos; zero for non-superposition tests.
	MaxLevel int64
	// FailureInterval is the test interval witnessing the failure for
	// Infeasible/NotAccepted verdicts, zero otherwise.
	FailureInterval int64
	// Bound is the exclusive feasibility bound the test used, zero when
	// the test terminated through the implicit superposition bound.
	Bound int64
	// BoundKind names Bound's origin.
	BoundKind bounds.Kind
}

// Arithmetic selects the accumulator arithmetic of the approximated tests.
type Arithmetic uint8

// The constants keep their historical values (1 was a retired float64
// mode) so analysis fingerprints do not move.
const (
	// ArithExact runs every accumulator on the scratch's bounded-
	// denominator chunk registers (numeric.Chunked), which leave int64
	// for math/big only when a value outgrows them, and decides U against
	// 1 and Devi's prefix conditions on fixed-point brackets (default).
	// Results are bit-identical to ArithBigRat.
	ArithExact Arithmetic = 0
	// ArithBigRat binds the approximated tests' accumulators, Devi's
	// prefix sums among them, to an empty chunk plan, so every fraction
	// is computed in math/big, and compares U with 1 on the exact
	// register sum — the reference ArithExact is property-tested against.
	ArithBigRat Arithmetic = 2
)

// RevisionOrder selects which approximated task the all-approximated test
// revises first when the approximated demand exceeds the interval. The
// paper's pseudocode pops "the first task" without fixing the order; FIFO
// is the natural reading and the default.
type RevisionOrder uint8

const (
	// ReviseFIFO revises the longest-approximated task first (default).
	ReviseFIFO RevisionOrder = iota
	// ReviseLIFO revises the most recently approximated task first.
	ReviseLIFO
	// ReviseMaxError revises the task with the largest current
	// approximation error app(I, τ) first.
	ReviseMaxError
)

// Options tune the tests. The zero value is the default configuration:
// exact arithmetic, FIFO revisions, no caps.
type Options struct {
	// Arithmetic selects the chunk registers or the math/big reference.
	Arithmetic Arithmetic
	// RevisionOrder applies to AllApprox.
	RevisionOrder RevisionOrder
	// MaxIterations caps the checked test intervals (0 = unlimited);
	// exceeding it yields Undecided.
	MaxIterations int64
	// MaxLevel caps the superposition level of DynamicError
	// (0 = unlimited). With a cap the test degrades into a sufficient
	// test with strictly limited run time, as Section 4.1 describes:
	// exceeding the cap yields NotAccepted instead of further refinement.
	MaxLevel int64
	// Bound forces ProcessorDemand to use a specific feasibility bound
	// (default: the smallest applicable one).
	Bound bounds.Kind
	// Blocking, when non-nil, reduces the processor capacity available at
	// test interval I: the tests check demand(I) <= I - Blocking(I) at
	// every absolute job deadline I (the SRP criterion is vacuous between
	// deadlines because dbf is constant there while I - B(I) never
	// shrinks). The function must be non-negative and non-increasing in
	// I, the shape of SRP/priority-ceiling blocking (see SRPBlocking).
	// QPA does not support blocking and returns Undecided when it is set.
	Blocking func(I int64) int64
	// Scratch, when non-nil, provides reusable working memory (test list,
	// job counters, demand sources) so repeated analyses run
	// allocation-free in steady state. A Scratch serves one analysis at a
	// time: callers sharing one across goroutines must serialize. When
	// nil, the tests borrow one from an internal pool.
	Scratch *demand.Scratch
	// Stages, when non-nil, receives one record per analyzer stage the
	// cascade runs — name, verdict, iterations, wall time — written into
	// the log's preallocated slots, so tracing keeps the analysis hot
	// paths allocation-free. Like Scratch, a StageLog serves one analysis
	// at a time. The field never influences results and is excluded from
	// analysis fingerprints.
	Stages *obs.StageLog
}

// acquire returns opt with a Scratch attached, plus the borrowed scratch
// to release (nil when the caller supplied one, or one was already
// attached by an outer entry point).
func (o Options) acquire() (Options, *demand.Scratch) {
	if o.Scratch != nil {
		return o, nil
	}
	s := demand.GetScratch()
	o.Scratch = s
	return o, s
}

// release returns a borrowed scratch to the pool; release(nil) is a no-op
// so it can be deferred unconditionally.
func release(s *demand.Scratch) {
	if s != nil {
		demand.PutScratch(s)
	}
}

// cmpUtilOne returns the sign of U - 1 for the sources' total
// utilization: demand.Scratch.UtilCmpOne, which decides on a fixed-point
// bracket and builds no chunk plan unless the bracket cannot decide.
// Under ArithBigRat it compares the exact register sum instead, so the
// reference stays independent of the bracket.
func (o Options) cmpUtilOne(srcs []demand.Uniform) int {
	if o.Arithmetic == ArithBigRat {
		return o.Scratch.Util(srcs).CmpInt(1)
	}
	return o.Scratch.UtilCmpOne(srcs)
}

// walkRegs binds the scratch registers for an accumulator walk over the
// sources: to their chunk plan, or under ArithBigRat to the empty plan of
// the math/big reference.
func (o Options) walkRegs(srcs []demand.Uniform) {
	if o.Arithmetic == ArithBigRat {
		o.Scratch.ArithBigRat()
		return
	}
	o.Scratch.Bind(srcs)
}

// capacityAt returns the capacity available at interval I under the
// configured blocking.
func (o Options) capacityAt(I int64) int64 {
	if o.Blocking == nil {
		return I
	}
	return I - o.Blocking(I)
}

// capped reports whether the iteration cap is exceeded.
func (o Options) capped(iter int64) bool {
	return o.MaxIterations > 0 && iter > o.MaxIterations
}
