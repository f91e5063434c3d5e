package core

import (
	"repro/internal/model"
)

// LiuLayland applies the classic utilization-bound test of Liu & Layland
// (Section 3.1 of the paper): for deadlines no smaller than periods, the
// set is feasible under EDF if and only if U <= 1. For sets with some
// D < T the test cannot accept (NotAccepted), although U > 1 still proves
// infeasibility.
func LiuLayland(ts model.TaskSet) Result { return LiuLaylandOpt(ts, Options{}) }

// LiuLaylandOpt is LiuLayland honoring Options: with a reused Scratch the
// utilization comparison runs allocation-free. Only the Scratch and
// Arithmetic fields influence the execution; the verdict is identical
// for any Options value.
func LiuLaylandOpt(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	if opt.cmpUtilOne(opt.Scratch.Sources(ts)) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	for _, t := range ts {
		if t.Deadline < t.Period {
			return Result{Verdict: NotAccepted, Iterations: 1}
		}
	}
	return Result{Verdict: Feasible, Iterations: 1}
}
