package core

import (
	"repro/internal/demand"
	"repro/internal/model"
)

// SuperPos applies the superposition test SuperPos(x) of Definition 6: the
// demand of each task is computed exactly for its first `level` jobs and
// approximated with slope C/T beyond (Definition 4); the set is accepted if
// the superposed approximation dbf'(I, Γ) stays within every checked test
// interval (Lemma 1). The test is sufficient with an error that shrinks as
// the level grows; SuperPos(1) is exactly Devi's test (Lemma 2).
func SuperPos(ts model.TaskSet, level int64, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	return SuperPosSources(opt.Scratch.Sources(ts), level, opt)
}

// SuperPosSources runs SuperPos(x) over generic demand sources. It walks
// the job deadlines of the first `level` jobs of each source in ascending
// order, maintaining the approximated demand incrementally:
//
//	dbf' += C_src + (I - Iold) * Uready
//
// where Uready is the total slope of the sources already past their maximum
// exact test interval Im = JobDeadline(level). Once the list drains, every
// remaining contribution grows with slope U <= 1 while the capacity grows
// with slope 1, so the approximated test holds for all larger intervals
// (the implicit superposition bound). The demand accumulator and the
// ready-slope sum are chunk registers mutated in place, so the walk stays
// exact and allocation-free on spread-period sets.
func SuperPosSources(srcs []demand.Source, level int64, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	if level < 1 {
		level = 1
	}
	if opt.Scratch.Util(srcs).CmpInt(1) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1, MaxLevel: level}
	}
	opt.walkRegs()
	tl := opt.Scratch.TestList(len(srcs))
	jobs := opt.Scratch.Jobs(len(srcs)) // processed jobs per source
	for i, s := range srcs {
		tl.Add(s.JobDeadline(1), i)
	}
	dbf, uready := opt.Scratch.Reg(0), opt.Scratch.Reg(1)
	var iold, iterations int64
	for !tl.Empty() {
		e := tl.Peek()
		I := e.I
		iterations++
		if opt.capped(iterations) {
			return Result{Verdict: Undecided, Iterations: iterations, MaxLevel: level}
		}
		s := srcs[e.Src]
		jobs[e.Src]++
		dbf.AddInt(s.WCET())
		dbf.AddScaled(uready, I-iold)
		if capacity := opt.capacityAt(I); dbf.CmpInt(capacity) > 0 {
			// The approximation rejected the interval. If the exact demand
			// already exceeds the capacity the set is infeasible, which
			// upgrades the verdict from NotAccepted to Infeasible.
			verdict := NotAccepted
			if demand.Dbf(srcs, I) > capacity {
				verdict = Infeasible
			}
			return Result{Verdict: verdict, Iterations: iterations, FailureInterval: I, MaxLevel: level}
		}
		if jobs[e.Src] >= level {
			// Reached Im: approximate this source from here on.
			tl.Next()
			num, den := s.UtilRat()
			uready.AddRat(num, den)
		} else {
			tl.Replace(s.NextDeadline(I), e.Src)
		}
		iold = I
	}
	return Result{Verdict: Feasible, Iterations: iterations, MaxLevel: level}
}

// SuperPosEpsilon runs the superposition test at the level corresponding to
// a relative approximation error epsilon in (0,1): level = ceil(1/epsilon).
// This is the interface of the approximate schedulability analysis of
// Chakraborty et al. (RTSS 2002), which Section 3.4 of the paper groups
// with the superposition approach: accepting with error epsilon means a
// processor slowed down by (1-epsilon) might reject the set.
func SuperPosEpsilon(ts model.TaskSet, epsilon float64, opt Options) Result {
	if epsilon <= 0 || epsilon >= 1 {
		return SuperPos(ts, 1, opt)
	}
	level := int64(1)
	if inv := 1 / epsilon; inv > 1 {
		level = int64(inv)
		if float64(level) < inv {
			level++
		}
	}
	return SuperPos(ts, level, opt)
}
