package core

import (
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/numeric"
)

// DynamicError applies the paper's dynamic error test (Section 4.1,
// Figure 5), an exact feasibility test that starts at approximation level
// SuperPos(1) and, whenever the approximated demand exceeds a test
// interval, doubles the level and withdraws the approximation of the tasks
// that the new level no longer allows to approximate (reusing all values
// already computed). Task sets accepted by Devi's test run entirely on
// level 1 with the same cost; only sets the sufficient tests cannot decide
// pay for higher levels.
//
// With Options.MaxLevel set the test becomes the bounded variant the paper
// describes: a strictly limited worst-case run time at the price of a
// merely sufficient verdict (NotAccepted when the cap prevents refinement).
func DynamicError(ts model.TaskSet, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	cmp := opt.Scratch.UtilTasks(ts).CmpInt(1)
	if cmp > 0 {
		return Result{Verdict: Infeasible, Iterations: 1, MaxLevel: 1}
	}
	srcs := opt.Scratch.Sources(ts)
	stopAt, kind, ok := fullUtilizationHorizon(ts, srcs, cmp, opt.Scratch)
	if !ok {
		return Result{Verdict: Undecided}
	}
	r := DynamicErrorSources(srcs, stopAt, opt)
	if stopAt > 0 {
		r.Bound, r.BoundKind = stopAt, kind
	}
	return r
}

// DynamicErrorSources runs the dynamic error test over generic demand
// sources. stopAt, when positive, is an exclusive sound horizon (needed
// only for U == 1; pass 0 otherwise). The demand accumulator and the
// ready-slope sum live in the scratch's chunk registers: the recurrence
// only adds, subtracts and scales by interval lengths, exactly the
// register operations of AllApproxSources.
func DynamicErrorSources(srcs []demand.Source, stopAt int64, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	switch opt.Scratch.Util(srcs).CmpInt(1) {
	case 1:
		return Result{Verdict: Infeasible, Iterations: 1, MaxLevel: 1}
	case 0:
		if stopAt == 0 && opt.MaxIterations == 0 {
			// See AllApproxSources: no implicit bound at full utilization.
			return Result{Verdict: Undecided}
		}
	}
	opt.walkRegs()
	tl := opt.Scratch.TestList(len(srcs))
	jobs := opt.Scratch.Jobs(len(srcs))
	for i, s := range srcs {
		tl.Add(s.JobDeadline(1), i)
	}
	approx := newApproxTracker(opt.Scratch, len(srcs))
	level := int64(1)
	dbf, uready := opt.Scratch.Reg(0), opt.Scratch.Reg(1)
	var iold, iterations, revisions int64
	for !tl.Empty() {
		e := tl.Next()
		I := e.I
		if stopAt > 0 && I >= stopAt {
			return Result{Verdict: Feasible, Iterations: iterations, Revisions: revisions, MaxLevel: level}
		}
		iterations++
		if opt.capped(iterations) {
			return Result{Verdict: Undecided, Iterations: iterations, Revisions: revisions, MaxLevel: level}
		}
		s := srcs[e.Src]
		jobs[e.Src]++
		dbf.AddInt(s.WCET())
		dbf.AddScaled(uready, I-iold)
		capacity := opt.capacityAt(I)
		for dbf.CmpInt(capacity) > 0 {
			if approx.empty() {
				// Nothing is approximated: the accounted demand is exact.
				exact := accountedDemand(srcs, jobs)
				if exact > capacity {
					return Result{Verdict: Infeasible, Iterations: iterations,
						Revisions: revisions, FailureInterval: I, MaxLevel: level}
				}
				dbf.SetInt(exact)
				break
			}
			// Raise the level (doubling, as the paper proposes) until at
			// least one approximated source's test border JobDeadline(level)
			// moves beyond I, so withdrawing its approximation is possible.
			raised := false
			for !raised {
				next := level * 2
				if next <= level {
					next = numeric.MaxInt64 / 2
				}
				if opt.MaxLevel > 0 && next > opt.MaxLevel {
					next = opt.MaxLevel
				}
				if next <= level {
					break // cap reached, cannot raise further
				}
				level = next
				for _, j := range approx.order {
					if srcs[j].JobDeadline(level) > I {
						raised = true
						break
					}
				}
			}
			if !raised {
				// Level capped with nothing to revise: sufficient mode.
				return Result{Verdict: NotAccepted, Iterations: iterations,
					Revisions: revisions, FailureInterval: I, MaxLevel: level}
			}
			// Γrev: withdraw every approximated source whose border at the
			// new level lies beyond I (it would not be approximated yet).
			for pos := 0; pos < len(approx.order); {
				j := approx.order[pos]
				sj := srcs[j]
				if sj.JobDeadline(level) <= I {
					pos++
					continue
				}
				approx.removeAt(pos)
				num, den := sj.UtilRat()
				uready.SubRat(num, den)
				an, ad := sj.ApproxError(I)
				dbf.SubRat(an, ad)
				jobs[j] = sj.JobsUpTo(I)
				tl.Add(sj.NextDeadline(I), j)
				revisions++
			}
		}
		// Past its border the source is approximated, otherwise its next
		// job deadline becomes a test interval (Iact + Ti in the paper).
		if I < srcs[e.Src].JobDeadline(level) {
			tl.Add(srcs[e.Src].NextDeadline(I), e.Src)
		} else if num, den := s.UtilRat(); num > 0 {
			uready.AddRat(num, den)
			approx.add(e.Src)
		}
		iold = I
	}
	return Result{Verdict: Feasible, Iterations: iterations, Revisions: revisions, MaxLevel: level}
}
