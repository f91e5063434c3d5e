package bounds

import (
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/numeric"
)

// Baruah returns the bound of Baruah et al. (Definition 3):
// I < U/(1-U) * max(Ti - Di). It applies only to constrained-deadline sets
// (Di <= Ti for every task) with U < 1; otherwise ok is false. A zero bound
// means no violation interval exists at all (every Di == Ti and U <= 1).
func Baruah(ts model.TaskSet) (bound int64, ok bool) {
	sc := demand.GetScratch()
	defer demand.PutScratch(sc)
	u := sc.UtilTasks(ts)
	if u.CmpInt(1) >= 0 {
		return 0, false
	}
	return baruah(ts, u, sc)
}

// George returns the bound of George et al.:
// I < Σ_{Di<=Ti} (1-Di/Ti)·Ci / (1-U). Sources whose term is negative
// (deadline beyond period) are excluded, which keeps the bound sound.
// ok is false when U >= 1 or the bound overflows.
func George(srcs []demand.Source) (bound int64, ok bool) {
	return GeorgeWithBlocking(srcs, 0)
}

// GeorgeTasks is George over a sporadic task set.
func GeorgeTasks(ts model.TaskSet) (int64, bool) { return George(demand.FromTasks(ts)) }

// GeorgeWithBlocking extends George's bound to blocking-reduced capacity:
// a violation dbf(I) > I - B(I) with B non-increasing and B(I) <= bmax
// implies I < (Σ terms + bmax)/(1-U).
func GeorgeWithBlocking(srcs []demand.Source, bmax int64) (bound int64, ok bool) {
	sc := demand.GetScratch()
	defer demand.PutScratch(sc)
	u := sc.Util(srcs)
	if u.CmpInt(1) >= 0 {
		return 0, false
	}
	bound, ok, _, _ = linearBounds(srcs, u, bmax, sc)
	return bound, ok
}

// Superposition returns the new bound I_sup of Section 4.3:
// the interval beyond which the all-approximated test can approximate every
// task, I_sup = max(Dmax, Σ_all (1-Di/Ti)·Ci / (1-U)). Unlike George, the
// sum ranges over every source including those with negative terms, which
// is sound for intervals >= the largest first deadline and makes the bound
// at most George's bound (the relationship the paper proves). ok is false
// when U >= 1 or on overflow.
func Superposition(srcs []demand.Source) (bound int64, ok bool) {
	_, _, bound, ok = LinearBounds(srcs)
	return bound, ok
}

// SuperpositionTasks is Superposition over a sporadic task set.
func SuperpositionTasks(ts model.TaskSet) (int64, bool) {
	return Superposition(demand.FromTasks(ts))
}

// LinearBounds returns George's bound and the superposition bound in one
// pass over the sources: the two share the utilization sum and the
// per-source linear terms. Each (bound, ok) pair matches the standalone
// function exactly.
func LinearBounds(srcs []demand.Source) (george int64, okG bool, superpos int64, okS bool) {
	sc := demand.GetScratch()
	defer demand.PutScratch(sc)
	return LinearBoundsScratch(srcs, sc)
}

// busyPeriodMaxIter caps the fixpoint iteration of BusyPeriod; real task
// sets converge in a handful of steps.
const busyPeriodMaxIter = 100000

// BusyPeriod returns the length of the synchronous processor busy period:
// the least fixpoint of L = Σ ceil(L/Ti)·Ci starting from L0 = Σ Ci.
// ok is false when U > 1, the iteration does not converge within the cap,
// or an intermediate value overflows. The paper notes this bound can be
// tighter than the superposition bound but is expensive to compute.
func BusyPeriod(ts model.TaskSet) (length int64, ok bool) {
	var l int64
	for _, t := range ts {
		var okAdd bool
		l, okAdd = numeric.AddChecked(l, t.WCET)
		if !okAdd {
			return 0, false
		}
	}
	for range busyPeriodMaxIter {
		var next int64
		for _, t := range ts {
			jobs := numeric.CeilDiv(l, t.Period)
			d, okMul := numeric.MulChecked(jobs, t.WCET)
			if !okMul {
				return 0, false
			}
			var okAdd bool
			next, okAdd = numeric.AddChecked(next, d)
			if !okAdd {
				return 0, false
			}
		}
		if next == l {
			return l, true
		}
		l = next
	}
	return 0, false
}

// Hyperperiod returns lcm(T1,...,Tn), ok=false on int64 overflow.
func Hyperperiod(ts model.TaskSet) (int64, bool) {
	h := int64(1)
	for _, t := range ts {
		var ok bool
		h, ok = numeric.LCM(h, t.Period)
		if !ok {
			return 0, false
		}
	}
	return h, true
}

// Kind names a feasibility bound for reporting.
type Kind string

// Bound kinds.
const (
	KindBaruah        Kind = "baruah"
	KindGeorge        Kind = "george"
	KindSuperposition Kind = "superposition"
	KindBusyPeriod    Kind = "busy-period"
	KindHyperperiod   Kind = "hyperperiod"
	KindNone          Kind = "none"
)

// Best returns the smallest applicable cheap bound (Baruah, George,
// superposition) for a task set with U < 1, together with its name.
// For U == 1 it falls back to hyperperiod + Dmax, which is sound because
// dbf(I+H) = dbf(I) + H for I >= Dmax when U == 1. ok is false for U > 1
// or when nothing applies within int64.
func Best(ts model.TaskSet) (bound int64, kind Kind, ok bool) {
	sc := demand.GetScratch()
	defer demand.PutScratch(sc)
	return BestSourcesScratch(ts, sc.Sources(ts), sc)
}

// fullUtilBound is the U == 1 fallback of Best: hyperperiod + Dmax + 1.
func fullUtilBound(ts model.TaskSet) (int64, Kind, bool) {
	h, okH := Hyperperiod(ts)
	if !okH {
		return 0, KindNone, false
	}
	b, okB := numeric.AddChecked(h, ts.MaxDeadline())
	if !okB {
		return 0, KindNone, false
	}
	// Exclusive bound: candidate violations lie at I <= H + Dmax.
	b, okB = numeric.AddChecked(b, 1)
	if !okB {
		return 0, KindNone, false
	}
	return b, KindHyperperiod, true
}

// BestSourcesScratch is Best for callers that hold the set's demand
// sources and an analysis Scratch: srcs must be FromTasks(ts) or
// equivalent. Every slope sum and quotient runs on the scratch's chunk
// registers, so the bound allocates nothing while the chunk plan covers
// the workload.
func BestSourcesScratch(ts model.TaskSet, srcs []demand.Source, sc *demand.Scratch) (bound int64, kind Kind, ok bool) {
	u := sc.Util(srcs)
	switch u.CmpInt(1) {
	case 1:
		return 0, KindNone, false
	case 0:
		return fullUtilBound(ts)
	}
	bound, kind, ok = 0, KindNone, false
	consider := func(b int64, k Kind, okB bool) {
		if okB && (!ok || b < bound) {
			bound, kind, ok = b, k, true
		}
	}
	b, okB := baruah(ts, u, sc)
	consider(b, KindBaruah, okB)
	bg, okG, bs, okS := linearBounds(srcs, u, 0, sc)
	consider(bg, KindGeorge, okG)
	consider(bs, KindSuperposition, okS)
	return bound, kind, ok
}

// LinearBoundsScratch is LinearBounds on the given scratch's registers.
func LinearBoundsScratch(srcs []demand.Source, sc *demand.Scratch) (george int64, okG bool, superpos int64, okS bool) {
	u := sc.Util(srcs)
	if u.CmpInt(1) >= 0 {
		return 0, false, 0, false
	}
	return linearBounds(srcs, u, 0, sc)
}

// baruah computes Baruah's bound on chunk registers. It requires U < 1
// (u holds the utilization) and clobbers registers 4-6.
func baruah(ts model.TaskSet, u *numeric.Chunked, sc *demand.Scratch) (int64, bool) {
	if !ts.Constrained() {
		return 0, false
	}
	var maxGap int64
	for _, t := range ts {
		maxGap = max(maxGap, t.Period-t.Deadline)
	}
	if maxGap == 0 {
		return 0, true
	}
	// ceil(U*maxGap / (1-U))
	num := sc.Reg(4)
	num.CopyFrom(u)
	num.MulInt(maxGap)
	return ceilQuo(num, u, sc)
}

// georgeTerm computes C - F*num/den into the register t: the per-source
// constant of the linear upper bound dbf_s(I) <= U_s*I + (C - F*U_s) for
// a source with first deadline F and slope num/den.
func georgeTerm(t *numeric.Chunked, s demand.Source) {
	num, den := s.UtilRat()
	t.SetZero()
	t.AddRat(num, den)
	t.MulInt(s.JobDeadline(1))
	t.Neg()
	t.AddInt(s.WCET())
}

// linearBounds computes George's bound, with the blocking allowance bmax
// added to its numerator, and the superposition bound on chunk
// registers. It requires U < 1 (u holds the utilization) and clobbers
// registers 1-6.
func linearBounds(srcs []demand.Source, u *numeric.Chunked, bmax int64, sc *demand.Scratch) (george int64, okG bool, superpos int64, okS bool) {
	sumPos, sumAll, term := sc.Reg(1), sc.Reg(2), sc.Reg(3)
	sumPos.SetInt(bmax)
	var dmax int64
	for _, s := range srcs {
		georgeTerm(term, s)
		sumAll.Add(term)
		if term.Sign() > 0 {
			sumPos.Add(term)
		}
		dmax = max(dmax, s.JobDeadline(1))
	}
	george, okG = ceilQuo(sumPos, u, sc)
	b, okB := ceilQuo(sumAll, u, sc)
	if !okB {
		return george, okG, 0, false
	}
	return george, okG, max(b, dmax), true
}

// ceilQuo rounds sum/(1-u) up to an int64: non-positive sums yield 0,
// and ok is false only when the (positive) result does not fit in int64.
// It requires u < 1 and clobbers registers 5 and 6.
func ceilQuo(sum, u *numeric.Chunked, sc *demand.Scratch) (int64, bool) {
	if sum.Sign() <= 0 {
		return 0, true
	}
	den := sc.Reg(5)
	den.SetInt(1)
	den.Sub(u)
	return numeric.QuoCeilChunked(sum, den, sc.Reg(6))
}
