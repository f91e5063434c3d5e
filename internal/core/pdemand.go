package core

import (
	"repro/internal/bounds"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/numeric"
)

// sourceBound returns the smallest applicable feasibility bound over plain
// sources (George or superposition; Baruah and hyperperiod need the task
// structure). Requires U < 1.
func sourceBound(srcs []demand.Source, sc *demand.Scratch) (int64, bounds.Kind, bool) {
	bg, okG, bs, okS := bounds.LinearBoundsScratch(srcs, sc)
	switch {
	case okG && okS:
		if bs <= bg {
			return bs, bounds.KindSuperposition, true
		}
		return bg, bounds.KindGeorge, true
	case okG:
		return bg, bounds.KindGeorge, true
	case okS:
		return bs, bounds.KindSuperposition, true
	default:
		return 0, bounds.KindNone, false
	}
}

// taskBound returns the feasibility bound for a task set honoring an
// explicit Options.Bound selection. srcs must be the task set's demand
// sources (they carry the George/superposition computation so a reused
// Scratch avoids re-adapting the set).
func taskBound(ts model.TaskSet, srcs []demand.Source, opt Options) (int64, bounds.Kind, bool) {
	switch opt.Bound {
	case "", bounds.KindNone:
		return bounds.BestSourcesScratch(ts, srcs, opt.Scratch)
	case bounds.KindBaruah:
		b, ok := bounds.Baruah(ts)
		return b, bounds.KindBaruah, ok
	case bounds.KindGeorge:
		b, ok := bounds.George(srcs)
		return b, bounds.KindGeorge, ok
	case bounds.KindSuperposition:
		b, ok := bounds.Superposition(srcs)
		return b, bounds.KindSuperposition, ok
	case bounds.KindBusyPeriod:
		b, ok := bounds.BusyPeriod(ts)
		// The busy period is an inclusive horizon: violations lie at
		// I <= L, so the exclusive bound is L+1.
		return b + 1, bounds.KindBusyPeriod, ok
	case bounds.KindHyperperiod:
		h, ok := bounds.Hyperperiod(ts)
		return h + ts.MaxDeadline() + 1, bounds.KindHyperperiod, ok
	default:
		return 0, bounds.KindNone, false
	}
}

// ProcessorDemand applies the exact processor demand test of Baruah et al.
// (Definition 3): the set is feasible iff dbf(I, Γ) <= I for every absolute
// deadline I below the feasibility bound. Iterations counts the distinct
// test intervals checked.
func ProcessorDemand(ts model.TaskSet, opt Options) Result {
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
	r := processorDemand(srcs, bound, opt)
	r.Bound, r.BoundKind = bound, kind
	return r
}

// ProcessorDemandSources runs the processor demand test over generic
// demand sources (e.g. event streams). It decides sets with U < 1, whose
// horizon comes from the George/superposition bound, and rejects U > 1.
// For U == 1 the result is Undecided: generic sources carry no task
// structure, so no finite hyperperiod horizon can be derived and neither
// linear bound exists — use DynamicErrorSources with an explicit stopAt
// horizon when the enclosing model can supply one.
func ProcessorDemandSources(srcs []demand.Source, opt Options) Result {
	opt, borrowed := opt.acquire()
	defer release(borrowed)
	switch opt.Scratch.Util(srcs).CmpInt(1) {
	case 1:
		return Result{Verdict: Infeasible, Iterations: 1}
	case 0:
		// No sound finite horizon exists for fully utilized generic
		// sources; report Undecided instead of running an unbounded walk.
		return Result{Verdict: Undecided}
	}
	bound, kind, ok := sourceBound(srcs, opt.Scratch)
	if !ok {
		return Result{Verdict: Undecided}
	}
	r := processorDemand(srcs, bound, opt)
	r.Bound, r.BoundKind = bound, kind
	return r
}

// processorDemand checks dbf(I) <= I for every distinct absolute deadline
// I < bound, walking deadlines in ascending order through the scratch
// heap. The caller must have attached a Scratch to opt.
func processorDemand(srcs []demand.Source, bound int64, opt Options) Result {
	if opt.Blocking == nil && opt.MaxIterations == 0 {
		if c, sep, ok := opt.Scratch.UniformShapes(srcs); ok {
			return processorDemandUniform(srcs, c, sep, bound, opt.Scratch)
		}
	}
	tl := opt.Scratch.TestList(len(srcs))
	for i, s := range srcs {
		if d := s.JobDeadline(1); d < bound {
			tl.Add(d, i)
		}
	}
	var dem, iterations int64
	for !tl.Empty() {
		I := tl.Peek().I
		// Merge every job whose deadline is exactly I: they form one test
		// interval.
		for {
			e := tl.Peek()
			dem += srcs[e.Src].WCET()
			if nd := srcs[e.Src].NextDeadline(I); nd < bound {
				tl.Replace(nd, e.Src)
			} else {
				tl.Next()
			}
			if tl.Empty() || tl.Peek().I != I {
				break
			}
		}
		iterations++
		if opt.capped(iterations) {
			return Result{Verdict: Undecided, Iterations: iterations}
		}
		if dem > opt.capacityAt(I) {
			return Result{Verdict: Infeasible, Iterations: iterations, FailureInterval: I}
		}
	}
	return Result{Verdict: Feasible, Iterations: iterations}
}

// processorDemandUniform is the demand walk specialized to uniformly
// repeating sources with no blocking and no iteration cap: per-source
// WCET and deadline separation live in flat arrays and the next test
// interval comes from a loser tree, whose replace-min costs one
// comparison per level instead of the heap's four-child sift.
//
// When the source just advanced wins the tournament again it is the sole
// owner of every interval up to the runner-up entry, and the run drains
// in one batch. The batch verifies only its first interval, which is
// sound because C <= Sep (guaranteed by U <= 1) makes the slack
// I - dbf(I) non-decreasing along the run; iterations still counts every
// interval, so results are identical to the generic walk. Detecting runs
// this way keeps the runner-up probe off the common path where sources
// interleave and runs never form.
func processorDemandUniform(srcs []demand.Source, c, sep []int64, bound int64, sc *demand.Scratch) Result {
	lt := sc.MergeTree(len(srcs))
	for i, s := range srcs {
		if d := s.JobDeadline(1); d < bound {
			lt.Set(i, d)
		}
	}
	lt.Build()
	var dem, iterations int64
	I, src := lt.Min()
	for I != demand.MaxInterval {
		cur := I
		last := src
		// Merge every job whose deadline is exactly cur: one test interval.
		for {
			dem += c[src]
			last = src
			nd := int64(demand.MaxInterval)
			if v, ok := numeric.AddChecked(I, sep[src]); ok && v < bound {
				nd = v
			}
			lt.ReplaceMin(nd)
			I, src = lt.Min()
			if I != cur {
				break
			}
		}
		iterations++
		if dem > cur {
			return Result{Verdict: Infeasible, Iterations: iterations, FailureInterval: cur}
		}
		if src != last || I == demand.MaxInterval || c[src] > sep[src] {
			continue
		}
		// The advanced source won again: sole owner of every interval in
		// [I, limit) — batch-drain the run.
		limit := min(lt.SecondMin(), bound)
		if limit <= I {
			continue
		}
		n := (limit-1-I)/sep[src] + 1
		dem += c[src]
		iterations++
		if dem > I {
			return Result{Verdict: Infeasible, Iterations: iterations, FailureInterval: I}
		}
		dem += (n - 1) * c[src]
		iterations += n - 1
		lastI := I + (n-1)*sep[src]
		nd := int64(demand.MaxInterval)
		if v, ok := numeric.AddChecked(lastI, sep[src]); ok && v < bound {
			nd = v
		}
		lt.ReplaceMin(nd)
		I, src = lt.Min()
	}
	return Result{Verdict: Feasible, Iterations: iterations}
}
