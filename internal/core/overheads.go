package core

import (
	"slices"

	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/model"
)

// Overheads configures the practical extensions Section 3.5 of the paper
// adopts from Devi into the superposition framework: context-switch costs,
// priority-ceiling (SRP) blocking derived from the per-task critical
// sections, and self-suspension.
type Overheads struct {
	// ContextSwitch is the cost σ of one context switch. Every job is
	// charged 2σ (dispatch and resume), the standard sufficient
	// accounting.
	ContextSwitch int64
}

// InflateOverheads returns a copy of the set with each task's WCET
// increased by twice the context-switch cost plus its self-suspension
// time (self-suspension is treated as demand, the sufficient accounting of
// Devi's extension). The inflated WCET may exceed a deadline, in which
// case the tests will report infeasibility.
func InflateOverheads(ts model.TaskSet, ov Overheads) model.TaskSet {
	c := ts.Clone()
	for i := range c {
		c[i].WCET += 2*ov.ContextSwitch + c[i].SelfSuspension
		c[i].SelfSuspension = 0
	}
	return c
}

// SRPBlocking returns the blocking function of the stack resource policy /
// priority ceiling protocol: B(I) = max{CS_j : D_j > I} — a job due within
// I can be blocked at most once, by the longest critical section of a task
// with a later relative deadline. The function is non-negative and
// non-increasing, as Options.Blocking requires.
func SRPBlocking(ts model.TaskSet) func(int64) int64 {
	type step struct{ deadline, cs int64 }
	steps := make([]step, 0, len(ts))
	for _, t := range ts {
		if t.CriticalSection > 0 {
			steps = append(steps, step{t.Deadline, t.CriticalSection})
		}
	}
	if len(steps) == 0 {
		return nil
	}
	slices.SortFunc(steps, func(a, b step) int {
		switch {
		case a.deadline < b.deadline:
			return -1
		case a.deadline > b.deadline:
			return 1
		default:
			return 0
		}
	})
	// suffixMax[i] = max CS over steps[i:].
	suffixMax := make([]int64, len(steps)+1)
	for i := len(steps) - 1; i >= 0; i-- {
		suffixMax[i] = max(suffixMax[i+1], steps[i].cs)
	}
	return func(I int64) int64 {
		// First step with deadline > I.
		lo, hi := 0, len(steps)
		for lo < hi {
			mid := (lo + hi) / 2
			if steps[mid].deadline > I {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return suffixMax[lo]
	}
}

// maxCriticalSection returns the longest critical section of the set.
func maxCriticalSection(ts model.TaskSet) int64 {
	var m int64
	for _, t := range ts {
		m = max(m, t.CriticalSection)
	}
	return m
}

// prepareOverheads inflates the set and installs the SRP blocking function
// into the options.
func prepareOverheads(ts model.TaskSet, ov Overheads, opt Options) (model.TaskSet, Options) {
	inflated := InflateOverheads(ts, ov)
	if opt.Blocking == nil {
		opt.Blocking = SRPBlocking(inflated)
	}
	return inflated, opt
}

// AllApproxWithOverheads runs the all-approximated test with context-switch
// costs, self-suspension and SRP blocking folded in. Exact for the
// blocking-extended processor demand criterion dbf(I) <= I - B(I).
func AllApproxWithOverheads(ts model.TaskSet, ov Overheads, opt Options) Result {
	inflated, opt := prepareOverheads(ts, ov, opt)
	return AllApprox(inflated, opt)
}

// DynamicErrorWithOverheads runs the dynamic error test with overheads and
// SRP blocking folded in.
func DynamicErrorWithOverheads(ts model.TaskSet, ov Overheads, opt Options) Result {
	inflated, opt := prepareOverheads(ts, ov, opt)
	return DynamicError(inflated, opt)
}

// ProcessorDemandWithOverheads runs the processor demand test against the
// blocking-extended criterion dbf(I) <= I - B(I), using a feasibility
// bound widened by the maximal blocking (George's bound plus B_max).
func ProcessorDemandWithOverheads(ts model.TaskSet, ov Overheads, opt Options) Result {
	inflated, opt := prepareOverheads(ts, ov, opt)
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	cmp := opt.Scratch.UtilTasks(inflated).CmpInt(1)
	if cmp > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	srcs := opt.Scratch.Sources(inflated)
	bmax := maxCriticalSection(inflated)
	var bound int64
	var kind bounds.Kind
	if cmp == 0 {
		// Hyperperiod horizon; B(I) = 0 beyond Dmax.
		b, k, ok := bounds.BestSourcesScratch(inflated, srcs, opt.Scratch)
		if !ok {
			return Result{Verdict: Undecided}
		}
		bound, kind = b, k
	} else {
		b, ok := bounds.GeorgeWithBlocking(srcs, bmax)
		if !ok {
			return Result{Verdict: Undecided}
		}
		bound, kind = b, bounds.KindGeorge
	}
	r := processorDemand(srcs, bound, opt)
	r.Bound, r.BoundKind = bound, kind
	return r
}

// DeviWithOverheads evaluates Devi's sufficient test with the blocking
// extension: for tasks ordered by non-decreasing deadline,
//
//	Σ_{i<=k} Ci/Ti + (Σ_{i<=k} ((Ti-min(Ti,Di))/Ti)·Ci + B(Dk)) / Dk <= 1
//
// where B is the SRP blocking function and WCETs include the context
// switch and self-suspension charges.
func DeviWithOverheads(ts model.TaskSet, ov Overheads) Result {
	inflated := InflateOverheads(ts, ov)
	sc := demand.GetScratch()
	defer demand.PutScratch(sc)
	return devi(inflated, SRPBlocking(inflated), sc)
}
