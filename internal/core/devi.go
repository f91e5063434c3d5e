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
// The prefix condition is checked in the division-free form
// Σ Ci/Ti · Dk + Σ gap-terms <= Dk and decided exactly: on 128-bit
// fixed-point brackets of the two sums (numeric.UtilSum.CmpMulAdd), and
// on the chunk registers only when a prefix lies too close to equality
// for its bracket. Iterations counts the prefix conditions checked, one
// per task up to and including the first failing one, matching the
// iteration metric of the paper's Table 1.
func Devi(ts model.TaskSet) Result { return DeviOpt(ts, Options{}) }

// DeviOpt is Devi honoring Options: with a reused Scratch the test runs
// allocation-free — the deadline-ordered keys live in a scratch buffer
// and the exact prefix accumulators in the chunk register bank. Only the
// Scratch and Arithmetic fields influence the execution; the verdict is
// identical for any Options value.
func DeviOpt(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	return devi(ts, nil, opt)
}

// devi evaluates the prefix conditions on brackets (deviBracket) and,
// where a bracket cannot decide, on the chunk registers (deviRegs). A
// non-nil blocking function adds B(Dk) to the demand side of the
// condition at Dk (see DeviWithOverheads). Under ArithBigRat the
// conditions run on the math/big registers, independent of the brackets.
// U is summed only for a set the walk rejects: the last condition holds
// U·Dn <= Dn, so a walk that accepts every prefix has shown U <= 1.
func devi(ts model.TaskSet, blocking func(int64) int64, opt Options) Result {
	sc := opt.Scratch
	keys := sc.ByDeadline(ts)
	r, ok := Result{}, false
	if opt.Arithmetic != ArithBigRat {
		r, ok = deviBracket(keys, blocking)
	}
	if !ok {
		// The walk from the first task reports the same iterations and
		// failure interval as a walk that never met an undecided bracket.
		r = deviRegs(keys, sc.Sources(ts), blocking, opt)
	}
	if r.Verdict == NotAccepted && opt.cmpUtilOne(sc.Sources(ts)) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	return r
}

// deviBracket evaluates the prefix conditions on 128-bit fixed-point
// brackets of Σ C/T and Σ (T - min(T, D))·C/T, building no chunk plan.
// ok is false when a prefix lies too close to equality for its bracket.
func deviBracket(keys []demand.DeadlineKey, blocking func(int64) int64) (r Result, ok bool) {
	var cumU, cumGap numeric.UtilSum
	for i, k := range keys {
		cumU = cumU.Add(k.C, k.T)
		if gap := k.T - min(k.T, k.D); gap > 0 {
			cumGap = cumGap.AddMul(gap, k.C, k.T)
		}
		var b int64
		if blocking != nil {
			b = blocking(k.D)
		}
		c, ok := cumU.CmpMulAdd(k.D, cumGap, b)
		if !ok {
			return Result{}, false
		}
		if c > 0 {
			return Result{Verdict: NotAccepted, Iterations: int64(i + 1), FailureInterval: k.D}, true
		}
	}
	return Result{Verdict: Feasible, Iterations: int64(len(keys))}, true
}

// deviRegs evaluates the prefix conditions exactly on the chunk
// registers, bound for the sources' walk.
func deviRegs(keys []demand.DeadlineKey, srcs []demand.Uniform, blocking func(int64) int64, opt Options) Result {
	opt.walkRegs(srcs)
	sc := opt.Scratch
	cumU, cumGap, cond, tmp := sc.Reg(0), sc.Reg(1), sc.Reg(2), sc.Reg(3)
	var iterations int64
	for _, k := range keys {
		iterations++
		cumU.AddRat(k.C, k.T)
		if gap := k.T - min(k.T, k.D); gap > 0 {
			if num, ok := numeric.MulChecked(gap, k.C); ok {
				cumGap.AddRat(num, k.T)
			} else {
				tmp.SetZero()
				tmp.AddRat(gap, k.T)
				tmp.MulInt(k.C)
				cumGap.Add(tmp)
			}
		}
		// cumU + (cumGap + B)/Dk <= 1  ⇔  cumU·Dk + cumGap + B <= Dk (Dk > 0).
		cond.CopyFrom(cumU)
		cond.MulInt(k.D)
		cond.Add(cumGap)
		if blocking != nil {
			cond.AddInt(blocking(k.D))
		}
		if cond.CmpInt(k.D) > 0 {
			return Result{
				Verdict:         NotAccepted,
				Iterations:      iterations,
				FailureInterval: k.D,
			}
		}
	}
	return Result{Verdict: Feasible, Iterations: iterations}
}
