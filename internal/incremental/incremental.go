// Package incremental maintains persistent per-session analysis state so
// an admission controller can decide most proposals by folding the one
// proposed task into running demand-bound accumulators instead of
// re-analyzing the whole committed workload.
//
// # The anchor
//
// The state keeps an "anchor": the sorted test points I_1 < ... < I_m of
// a level-L superposition walk (the paper's SuperPos(L) approximation,
// Definition 6) over the session's current sources, and for each point
// an integer slack floor
//
//	slack_k <= I_k - dbf'(I_k)
//
// where dbf' is the superposed level-L approximated demand of the
// current set. Two structural invariants make the anchor usable as a
// certificate:
//
//  1. every jump of dbf' happens at an anchor point (the walk records
//     all first-L job deadlines; beyond them each source is linear), and
//  2. beyond any point, dbf' grows with slope at most U, the current
//     total utilization, of which uQ32 is a fixed-point upper bound.
//
// # The certificate
//
// A proposed task is lowered to demand.Uniform sources; each source
// contributes nothing before its first deadline F and is majorized by
// the line C + (C/Sep)·(I-F) from there on (the staircase never exceeds
// the line through its step tops). The fast accept check verifies, at
// every anchor point I_k >= F and at every F itself, that the
// conservative sum
//
//	majorant(dbf'(I)) + Σ lineCeil(src, I) <= I
//
// holds. Between checked points the violation function has slope at most
// U' - 1 <= 0 (U' < 1 is gated by the caller), and it jumps only at
// anchor points and the staged first deadlines — all of which are
// checked — so the inequality holds for every interval: the grown set's
// exact demand never exceeds the capacity, the set is truly feasible,
// and the registry cascade's exact authority would return Feasible. The
// check is sufficient-only: when it fails the caller escalates to the
// full analyzer, so verdicts stay bit-identical to a from-scratch
// analysis either way.
//
// # Folding and rollback
//
// Admitting a task folds its ceiled staircase into the slack floors
// (one O(m) integer pass) and merge-inserts its own first-L deadlines as
// new anchor points — no rational arithmetic, no allocation in steady
// state. Commit snapshots the anchor; Rollback restores the snapshot,
// which undoes any number of pending proposals exactly. Any arithmetic
// overflow marks the anchor broken — decisions already made stay sound,
// later proposals simply escalate.
//
// The state keeps no copy of the tasks it certifies: its owner already
// holds them, and hands their sources to Rebuild when a whole set has to
// be walked from scratch.
//
// # Owners
//
// An admission session keeps one State for its whole lifetime. A
// partitioned placement keeps one per processor: each trial is a Check,
// and the tasks the processor accepted since its last Check are each an
// Admit, in order, just before the next one, so a processor that is
// never checked again folds nothing more; Reset empties the states for
// the next heuristic. Both decide through Eligible whether their
// configuration may use the certificate at all.
package incremental

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// Eligible reports whether a configuration may decide through the
// certificate. analyzer is the resolved registry name of the configured
// test (its Info().Name), so every spelling that resolves to the cascade
// qualifies. The certificate reasons about the plain synchronous
// demand-bound criterion the cascade decides exactly, so anything that
// changes the cascade's semantics — blocking, iteration or level caps, a
// forced bound, or a different analyzer altogether — rules it out. Both
// arithmetics stay eligible: they are bit-identical.
func Eligible(analyzer string, opt core.Options) bool {
	return analyzer == "cascade" &&
		opt.Blocking == nil &&
		opt.MaxIterations == 0 &&
		opt.MaxLevel == 0 &&
		opt.Bound == ""
}

// q32Shift is the fixed-point precision of the utilization upper bound.
const q32Shift = 32

// State is the persistent incremental-analysis state of one growing task
// set: an admission session, or one processor of a placement. It is not
// concurrency-safe; the owner serializes access. The zero value is not
// usable; construct with New.
type State struct {
	level int64 // superposition level of the anchor walk

	// Working anchor (committed + pending).
	pts   []int64
	slack []int64
	valid bool   // anchor usable as a certificate
	uQ32  uint64 // ceil(U * 2^32) upper bound of the current set

	// Committed snapshot, restored verbatim on Rollback.
	cPts   []int64
	cSlack []int64
	cValid bool
	cUQ32  uint64

	// Reusable working memory.
	staged []demand.Uniform // proposed task's sources, sorted by First
	newPts []int64          // staged sources' own test points
	spareP []int64          // fold output double buffers
	spareS []int64
}

// New returns an empty, valid state using the given superposition level
// for its anchor (level < 1 is clamped to 1).
func New(level int64) *State {
	if level < 1 {
		level = 1
	}
	st := &State{level: level, valid: true, cValid: true}
	return st
}

// Reset empties the state in place, as if it were New with the same
// level, keeping every buffer's capacity: an owner cycling through many
// short-lived task sets allocates its working memory once.
func (st *State) Reset() {
	st.pts, st.slack = st.pts[:0], st.slack[:0]
	st.valid, st.uQ32 = true, 0
	st.cPts, st.cSlack = st.cPts[:0], st.cSlack[:0]
	st.cValid, st.cUQ32 = true, 0
}

// Points returns the current anchor size (for tests and introspection).
func (st *State) Points() int { return len(st.pts) }

// Usable reports whether the fast certificate can run at all — the
// anchor survived the last rebuild and every fold since.
func (st *State) Usable() bool { return st.valid }

// stage lowers t, which must pass Validate, into st.staged, sorted by
// first deadline ascending; it reports false for a task with neither side
// set. The slice is reused across calls.
func (st *State) stage(t workload.Task) bool {
	st.staged = st.staged[:0]
	switch {
	case t.Sporadic != nil:
		st.staged = append(st.staged, demand.UniformFromTask(*t.Sporadic))
	case t.Event != nil:
		st.staged = t.Event.AppendSources(st.staged)
	default:
		return false
	}
	slices.SortFunc(st.staged, func(a, b demand.Uniform) int {
		if a.First != b.First {
			if a.First < b.First {
				return -1
			}
			return 1
		}
		return 0
	})
	return true
}

// lineCeil returns an integer upper bound of the linear majorant
// C + (C/Sep)·(I-First) of src at I >= First.
func lineCeil(src demand.Uniform, I int64) (int64, bool) {
	if src.Sep == 0 {
		return src.C, true
	}
	p, ok := numeric.MulChecked(src.C, I-src.First)
	if !ok {
		return 0, false
	}
	g := p / src.Sep
	if p%src.Sep != 0 {
		g++
	}
	return numeric.AddChecked(src.C, g)
}

// staircaseCeil returns an integer upper bound of the level-L
// approximated demand dbf' of src at I: the exact staircase for the
// first level jobs, the ceiled line beyond.
func (st *State) staircaseCeil(src demand.Uniform, I int64) (int64, bool) {
	if I < src.First {
		return 0, true
	}
	jobs := int64(1)
	if src.Sep > 0 {
		jobs = (I-src.First)/src.Sep + 1
		if jobs > st.level {
			jobs = st.level
		}
	}
	d, ok := numeric.MulChecked(jobs, src.C)
	if !ok {
		return 0, false
	}
	if src.Sep == 0 || jobs < st.level {
		return d, true
	}
	// Linear tail beyond Im = First + (level-1)*Sep.
	span, ok := numeric.MulChecked(st.level-1, src.Sep)
	if !ok {
		return 0, false
	}
	im, ok := numeric.AddChecked(src.First, span)
	if !ok {
		return 0, false
	}
	if I <= im {
		return d, true
	}
	p, ok := numeric.MulChecked(src.C, I-im)
	if !ok {
		return 0, false
	}
	tail := p / src.Sep
	if p%src.Sep != 0 {
		tail++
	}
	return numeric.AddChecked(d, tail)
}

// stagedDemandCeil sums staircaseCeil over every staged source at I.
func (st *State) stagedDemandCeil(I int64) (int64, bool) {
	var sum int64
	for _, src := range st.staged {
		d, ok := st.staircaseCeil(src, I)
		if !ok {
			return 0, false
		}
		if sum, ok = numeric.AddChecked(sum, d); !ok {
			return 0, false
		}
	}
	return sum, true
}

// q32MulCeil returns ceil(u * dt / 2^32) for dt >= 0 through a 128-bit
// product, and whether it fits in int64.
func q32MulCeil(u uint64, dt int64) (int64, bool) {
	if dt <= 0 || u == 0 {
		return 0, dt >= 0
	}
	hi, lo := bits.Mul64(u, uint64(dt))
	if hi >= 1<<(64-q32Shift-1) {
		return 0, false
	}
	v := hi<<q32Shift | lo>>q32Shift
	if lo&(1<<q32Shift-1) != 0 {
		v++
	}
	if v > math.MaxInt64 {
		return 0, false
	}
	return int64(v), true
}

// slopeQ32 returns ceil(num/den * 2^32) for the slope num/den >= 0.
func slopeQ32(num, den int64) (uint64, bool) {
	if num <= 0 {
		return 0, num == 0
	}
	hi := uint64(num) >> (64 - q32Shift)
	lo := uint64(num) << q32Shift
	if hi >= uint64(den) {
		return 0, false
	}
	q, r := bits.Div64(hi, lo, uint64(den))
	if r > 0 {
		q++
	}
	return q, true
}

// curMajorantCeil returns an integer upper bound of dbf'(I) of the
// current set: the last anchor point at or before I plus uQ32 growth.
// Before the first anchor point the current demand is exactly zero.
func (st *State) curMajorantCeil(I int64) (int64, bool) {
	k, found := slices.BinarySearch(st.pts, I)
	if !found {
		if k == 0 {
			return 0, true
		}
		k-- // last index with pts[k] <= I
	}
	base, ok := numeric.SubChecked(st.pts[k], st.slack[k])
	if !ok {
		return 0, false
	}
	growth, ok := q32MulCeil(st.uQ32, I-st.pts[k])
	if !ok {
		return 0, false
	}
	return numeric.AddChecked(base, growth)
}

// Check runs the incremental accept certificate for the proposed task t
// against the current anchor. It returns ok == true only when the grown
// set is provably feasible, under two preconditions the caller owns: the
// grown utilization is strictly below 1, and the current set is exactly
// feasible (the admission invariant — every task in it was accepted by
// this certificate or the exact analyzer). The latter covers
// intervals before the proposal's first deadline, which the scan skips.
// checked counts the verified test points, the effort analogue of a
// test's iteration count. A false return says nothing — the caller
// escalates to the full analyzer.
func (st *State) Check(t workload.Task) (ok bool, checked int64) {
	if !st.valid || !st.stage(t) || len(st.staged) == 0 {
		return false, 0
	}
	// Entry checks: at every staged first deadline F, the current
	// majorant plus every line already started must fit into F.
	for j := range st.staged {
		f := st.staged[j].First
		cur, okc := st.curMajorantCeil(f)
		if !okc {
			return false, checked
		}
		need := cur
		for i := 0; i <= j; i++ {
			l, okl := lineCeil(st.staged[i], f)
			if !okl {
				return false, checked
			}
			if need, okl = numeric.AddChecked(need, l); !okl {
				return false, checked
			}
		}
		checked++
		if need > f {
			return false, checked
		}
	}
	// Anchor scan: every anchor point at or after the first staged
	// deadline must have slack covering the staged lines.
	start, _ := slices.BinarySearch(st.pts, st.staged[0].First)
	for k := start; k < len(st.pts); k++ {
		I := st.pts[k]
		var need int64
		for _, src := range st.staged {
			if src.First > I {
				break // staged is sorted; later sources start even later
			}
			l, okl := lineCeil(src, I)
			if !okl {
				return false, checked
			}
			if need, okl = numeric.AddChecked(need, l); !okl {
				return false, checked
			}
		}
		checked++
		if st.slack[k] < need {
			return false, checked
		}
	}
	return true, checked
}

// Admit folds the proposed task into the state after the caller decided
// to stage it (by the fast certificate or by an escalated analysis). The
// anchor is updated when it is still valid and the fold arithmetic stays
// in range, and marked unusable otherwise — the decision already made is
// unaffected.
func (st *State) Admit(t workload.Task) {
	if !st.valid {
		return
	}
	if !st.stage(t) {
		st.valid = false
		return
	}
	if !st.fold() {
		st.valid = false
		return
	}
	// Raise the utilization upper bound after the fold: the fold's
	// new-point majorants describe the pre-admit set.
	for _, src := range st.staged {
		q, ok := slopeQ32(src.UtilRat())
		if !ok {
			st.valid = false
			return
		}
		if st.uQ32 > math.MaxUint64-q {
			st.valid = false
			return
		}
		st.uQ32 += q
	}
}

// fold merges the staged sources into the anchor: existing points lose
// the staged ceiled staircase from their slack, and the staged first-L
// deadlines join as new points whose slack comes from the current
// majorant plus the staged demand. One integer pass, reusing the merge
// buffers.
func (st *State) fold() bool {
	// Collect the staged sources' own test points.
	newPts := st.newPts[:0]
	for _, src := range st.staged {
		for k := int64(1); k <= st.level; k++ {
			p := src.JobDeadline(k)
			if p == demand.MaxInterval {
				break
			}
			newPts = append(newPts, p)
		}
	}
	slices.Sort(newPts)
	newPts = slices.Compact(newPts)
	st.newPts = newPts

	// The spare buffers double-buffer the anchor: after the first few
	// folds they are large enough and the merge allocates nothing.
	outP, outS := st.spareP[:0], st.spareS[:0]

	i, j := 0, 0
	// prevI/prevBase track the last existing anchor point passed, with
	// its pre-fold demand ceiling — the majorant anchor for new points.
	var prevI, prevBase int64
	hasPrev := false
	for i < len(st.pts) || j < len(newPts) {
		if i < len(st.pts) && (j >= len(newPts) || st.pts[i] <= newPts[j]) {
			I := st.pts[i]
			d, ok := st.stagedDemandCeil(I)
			if !ok {
				return false
			}
			ns, ok := numeric.SubChecked(st.slack[i], d)
			if !ok {
				return false
			}
			base, ok := numeric.SubChecked(I, st.slack[i])
			if !ok {
				return false
			}
			outP = append(outP, I)
			outS = append(outS, ns)
			prevI, prevBase, hasPrev = I, base, true
			if j < len(newPts) && newPts[j] == I {
				j++ // the existing point already covers this jump
			}
			i++
			continue
		}
		// A new point P: before the first existing anchor point the
		// current set has exactly zero approximated demand, beyond one
		// its majorant is the point's ceiling plus uQ32 growth.
		P := newPts[j]
		var cur int64
		if hasPrev {
			growth, ok := q32MulCeil(st.uQ32, P-prevI)
			if !ok {
				return false
			}
			if cur, ok = numeric.AddChecked(prevBase, growth); !ok {
				return false
			}
		}
		d, ok := st.stagedDemandCeil(P)
		if !ok {
			return false
		}
		total, ok := numeric.AddChecked(cur, d)
		if !ok {
			return false
		}
		outP = append(outP, P)
		outS = append(outS, P-total)
		j++
	}
	// Swap: the old anchor arrays become the next fold's output buffers.
	st.spareP, st.spareS = st.pts, st.slack
	st.pts, st.slack = outP, outS
	return true
}

// Rebuild discards the anchor and reconstructs it with a level-L
// superposition walk over srcs, the sources of the owner's whole current
// set — the from-scratch path used at construction. The walk runs on s:
// its test list, job counters and chunk registers, bound to the plan
// over the sources' slopes, so it is exact and stays off math/big
// whenever that plan covers the periods. srcs may be s's own source
// slice (Scratch.Sources); the walk neither keeps nor modifies it.
// Points where the approximation overshoots the interval get negative
// slack (sound: the owner only keeps sets the exact analyzer admitted,
// and such points just fail future certificates); only an accumulator
// leaving int64 range makes the anchor unusable, after which every
// proposal escalates.
func (st *State) Rebuild(s *demand.Scratch, srcs []demand.Uniform) {
	st.pts = st.pts[:0]
	st.slack = st.slack[:0]
	st.valid = false
	st.uQ32 = 0
	for _, src := range srcs {
		q, ok := slopeQ32(src.UtilRat())
		if !ok || st.uQ32 > math.MaxUint64-q {
			return
		}
		st.uQ32 += q
	}
	s.Bind(srcs)
	dbf, uready, one, tmp := s.Reg(1), s.Reg(2), s.Reg(3), s.Reg(4)
	one.SetInt(1)
	tl := s.TestList(len(srcs))
	jobs := s.Jobs(len(srcs))
	for i := range srcs {
		tl.Add(srcs[i].JobDeadline(1), i)
	}
	var iold int64
	for !tl.Empty() {
		e := tl.Next()
		src := &srcs[e.Src]
		jobs[e.Src]++
		dbf.AddInt(src.C)
		dbf.AddScaled(uready, e.I-iold)
		iold = e.I
		if jobs[e.Src] >= st.level {
			uready.AddRat(src.UtilRat())
		} else {
			tl.Add(src.NextDeadline(e.I), e.Src)
		}
		if tl.Empty() || tl.Peek().I != e.I {
			c, ok := numeric.QuoCeilChunked(dbf, one, tmp)
			if !ok {
				// Approximation left int64 range: no certificate.
				st.pts = st.pts[:0]
				st.slack = st.slack[:0]
				return
			}
			// A negative slack (the approximation overshoots the interval)
			// is recorded as-is: the set itself was admitted by the exact
			// analyzer, so the anchor stays sound and future certificates
			// simply fail at that point and escalate.
			st.pts = append(st.pts, e.I)
			st.slack = append(st.slack, e.I-c)
		}
	}
	st.valid = true
}

// Commit snapshots the working anchor as the new committed state.
func (st *State) Commit() {
	st.cPts = append(st.cPts[:0], st.pts...)
	st.cSlack = append(st.cSlack[:0], st.slack...)
	st.cValid = st.valid
	st.cUQ32 = st.uQ32
}

// Rollback restores the committed snapshot exactly, discarding every
// pending fold in one shot.
func (st *State) Rollback() {
	st.pts = append(st.pts[:0], st.cPts...)
	st.slack = append(st.slack[:0], st.cSlack...)
	st.valid = st.cValid
	st.uQ32 = st.cUQ32
}
