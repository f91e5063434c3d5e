package core

import (
	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/model"
)

// AllApprox applies the paper's all-approximated test (Section 4.2,
// Figure 7), an exact feasibility test: every task is approximated
// immediately after its first job, and whenever the approximated demand
// exceeds a test interval, per-task approximations are revised one by one —
// replacing approximated by real cost and scheduling the task's next job
// deadline as a new test interval (Lemma 5) — until the test either
// succeeds or no approximation is left (then the exact demand exceeds the
// capacity and the set is infeasible).
//
// If the initial interval of each task is accepted without revisions the
// behaviour and cost equal Devi's test; the feasibility bound of Section
// 4.3 is implicit: the test list simply drains.
func AllApprox(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	srcs := opt.Scratch.Sources(ts)
	cmp := opt.cmpUtilOne(srcs)
	if cmp > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	stopAt, kind, ok := fullUtilizationHorizon(ts, srcs, cmp, opt.Scratch)
	if !ok {
		return Result{Verdict: Undecided}
	}
	r := allApprox(srcs, cmp, stopAt, opt)
	if stopAt > 0 {
		r.Bound, r.BoundKind = stopAt, kind
	}
	return r
}

// fullUtilizationHorizon returns a sound stop horizon for a task set
// whose utilization compares with 1 as cmp (cmp <= 0). A fully utilized
// set (cmp == 0) has an infinite superposition bound, but beyond
// hyperperiod + Dmax its demand pattern repeats with slope exactly 1.
// For U < 1 it returns 0 (no horizon needed). ok is false when U == 1
// and the hyperperiod overflows.
func fullUtilizationHorizon(ts model.TaskSet, srcs []demand.Uniform, cmp int, sc *demand.Scratch) (int64, bounds.Kind, bool) {
	if cmp < 0 {
		return 0, bounds.KindNone, true
	}
	return bounds.BestSourcesScratch(ts, srcs, sc)
}

// AllApproxSources runs the all-approximated test over generic demand
// sources. stopAt, when positive, is an exclusive sound horizon: reaching
// it concludes feasibility (needed only for U == 1; pass 0 otherwise).
// The demand accumulator and the ready-slope sum live in the scratch's
// chunk registers (see SuperPosSources).
func AllApproxSources(srcs []demand.Uniform, stopAt int64, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	cmp := opt.cmpUtilOne(srcs)
	if cmp > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	return allApprox(srcs, cmp, stopAt, opt)
}

// allApprox is the all-approximated walk for sources whose utilization
// compares with 1 as cmp (cmp <= 0), on opt's Scratch.
func allApprox(srcs []demand.Uniform, cmp int, stopAt int64, opt Options) Result {
	if cmp == 0 && stopAt == 0 && opt.MaxIterations == 0 {
		// Fully utilized source sets carry no implicit superposition
		// bound; without a horizon or cap the walk need not terminate.
		return Result{Verdict: Undecided}
	}
	opt.walkRegs(srcs)
	tl := opt.Scratch.TestList(len(srcs))
	jobs := opt.Scratch.Jobs(len(srcs))
	for i, s := range srcs {
		tl.Add(s.JobDeadline(1), i)
	}
	approx := newApproxTracker(opt.Scratch, len(srcs))
	dbf, uready := opt.Scratch.Reg(0), opt.Scratch.Reg(1)
	var iold, iterations, revisions int64
	for !tl.Empty() {
		e := tl.Next()
		I := e.I
		if stopAt > 0 && I >= stopAt {
			return Result{Verdict: Feasible, Iterations: iterations, Revisions: revisions}
		}
		iterations++
		if opt.capped(iterations) {
			return Result{Verdict: Undecided, Iterations: iterations, Revisions: revisions}
		}
		s := srcs[e.Src]
		jobs[e.Src]++
		dbf.AddInt(s.C)
		dbf.AddScaled(uready, I-iold)
		capacity := opt.capacityAt(I)
		for dbf.CmpInt(capacity) > 0 {
			j, ok := approx.pick(opt.RevisionOrder, srcs, I)
			if !ok {
				// Nothing is approximated: the accounted demand is exact.
				exact := accountedDemand(srcs, jobs)
				if exact > capacity {
					return Result{Verdict: Infeasible, Iterations: iterations,
						Revisions: revisions, FailureInterval: I}
				}
				dbf.SetInt(exact)
				break
			}
			// Revise j: replace its approximated cost by the real cost at I
			// (subtract the overestimation app, Lemma 6) and queue its next
			// job deadline after I as an additional test interval (Lemma 5).
			sj := srcs[j]
			num, den := sj.UtilRat()
			uready.SubRat(num, den)
			an, ad := sj.ApproxError(I)
			dbf.SubRat(an, ad)
			jobs[j] = sj.JobsUpTo(I)
			tl.Add(sj.NextDeadline(I), j)
			revisions++
		}
		// Approximate the source whose interval was just verified.
		if num, den := s.UtilRat(); num > 0 {
			uready.AddRat(num, den)
			approx.add(e.Src)
		}
		iold = I
	}
	return Result{Verdict: Feasible, Iterations: iterations, Revisions: revisions}
}
