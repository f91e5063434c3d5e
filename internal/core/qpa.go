package core

import (
	"repro/internal/demand"
	"repro/internal/model"
)

// maxDeadlineBelow returns the largest absolute job deadline strictly below
// x over the sources, or -1 if there is none.
func maxDeadlineBelow(srcs []demand.Source, x int64) int64 {
	best := int64(-1)
	for _, s := range srcs {
		if x <= 0 {
			break
		}
		k := s.JobsUpTo(x - 1)
		if k == 0 {
			continue
		}
		best = max(best, s.JobDeadline(k))
	}
	return best
}

// QPA applies Quick Processor-demand Analysis (Zhang & Burns, 2009), an
// exact EDF test that walks the demand bound function backwards from the
// feasibility bound instead of enumerating every deadline. It postdates the
// paper and serves as an additional exact baseline for the ablation
// benchmarks: like the paper's tests it needs dramatically fewer dbf
// evaluations than the classic processor demand test.
//
// Iterations counts dbf evaluations.
func QPA(ts model.TaskSet, opt Options) Result {
	if opt.Blocking != nil {
		// The backward QPA walk is not established for blocking-reduced
		// capacity; refuse rather than guess.
		return Result{Verdict: Undecided}
	}
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	if opt.Scratch.UtilTasks(ts).CmpInt(1) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	srcs := opt.Scratch.Sources(ts)
	bound, kind, ok := taskBound(ts, srcs, opt)
	if !ok {
		return Result{Verdict: Undecided}
	}
	dmin := ts.MinDeadline()
	t := maxDeadlineBelow(srcs, bound)
	var iterations int64
	for t >= 0 {
		h := demand.Dbf(srcs, t)
		iterations++
		if opt.capped(iterations) {
			return Result{Verdict: Undecided, Iterations: iterations, Bound: bound, BoundKind: kind}
		}
		switch {
		case h > t:
			return Result{Verdict: Infeasible, Iterations: iterations, FailureInterval: t, Bound: bound, BoundKind: kind}
		case h <= dmin:
			return Result{Verdict: Feasible, Iterations: iterations, Bound: bound, BoundKind: kind}
		case h < t:
			t = h
		default: // h == t: skip to the next smaller deadline
			t = maxDeadlineBelow(srcs, t)
		}
	}
	return Result{Verdict: Feasible, Iterations: iterations, Bound: bound, BoundKind: kind}
}
