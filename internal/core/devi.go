package core

import (
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/numeric"
)

// Devi applies the sufficient test of Devi (Definition 1): with tasks
// ordered by non-decreasing relative deadline, the set is accepted if
// U <= 1 and for every prefix k
//
//	Σ_{i<=k} Ci/Ti  +  (1/Dk)·Σ_{i<=k} ((Ti - min(Ti,Di))/Ti)·Ci  <=  1.
//
// The test is evaluated in exact rational arithmetic; the prefix
// condition is checked in the division-free form
// Σ Ci/Ti · Dk + Σ gap-terms <= Dk. Iterations counts the prefix
// conditions checked, one per task up to and including the first failing
// one, matching the iteration metric of the paper's Table 1.
func Devi(ts model.TaskSet) Result { return DeviOpt(ts, Options{}) }

// DeviOpt is Devi honoring Options: with a reused Scratch the test runs
// allocation-free — the deadline-sorted copy lives in a scratch buffer
// and the prefix accumulators in the chunk register bank. Only the
// Scratch field influences the execution; the verdict is identical for
// any Options value.
func DeviOpt(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	return devi(ts, nil, opt.Scratch)
}

// devi evaluates the prefix conditions on the chunk registers. A non-nil
// blocking function adds B(Dk) to the demand side of the condition at
// Dk (see DeviWithOverheads).
func devi(ts model.TaskSet, blocking func(int64) int64, sc *demand.Scratch) Result {
	if sc.UtilTasks(ts).CmpInt(1) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	sorted := sc.SortedByDeadline(ts)
	cumU, cumGap, cond, tmp := sc.Reg(0), sc.Reg(1), sc.Reg(2), sc.Reg(3)
	var iterations int64
	for _, t := range sorted {
		iterations++
		cumU.AddRat(t.WCET, t.Period)
		if gap := t.Period - min(t.Period, t.Deadline); gap > 0 {
			if num, ok := numeric.MulChecked(gap, t.WCET); ok {
				cumGap.AddRat(num, t.Period)
			} else {
				tmp.SetZero()
				tmp.AddRat(gap, t.Period)
				tmp.MulInt(t.WCET)
				cumGap.Add(tmp)
			}
		}
		// cumU + (cumGap + B)/Dk <= 1  ⇔  cumU·Dk + cumGap + B <= Dk (Dk > 0).
		cond.CopyFrom(cumU)
		cond.MulInt(t.Deadline)
		cond.Add(cumGap)
		if blocking != nil {
			cond.AddInt(blocking(t.Deadline))
		}
		if cond.CmpInt(t.Deadline) > 0 {
			return Result{
				Verdict:         NotAccepted,
				Iterations:      iterations,
				FailureInterval: t.Deadline,
			}
		}
	}
	return Result{Verdict: Feasible, Iterations: iterations}
}
