package demand

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/model"
	"repro/internal/numeric"
)

// Scratch is reusable working memory for the iterative feasibility tests:
// the test list, the per-source job counters, the task set's Uniform
// sources and the revision-tracker buffers. A Scratch serves one analysis
// at a time — its parts are distinct fields, so one test may use all of
// them concurrently, but two concurrent tests must not share a Scratch.
// With a reused Scratch the sporadic analyzers run allocation-free in
// steady state.
//
// The zero value is ready for use; NewScratch exists for symmetry with
// the pool helpers.
type Scratch struct {
	list  TestList
	jobs  []int64
	srcs  []Uniform
	ints  []int
	bools []bool

	// Bounded-denominator arithmetic state: the per-workload chunk plan
	// (kept under its denominator key across analyses of the same set and
	// rebuilt from the prefix a new key shares with it),
	// the always-empty plan of the big.Rat reference, which plan the
	// registers bind to, the register bank the analyzers and bounds
	// compute in, and the promotion tally that survives plan rebuilds.
	denBuf  []int64
	planKey []int64
	plan    numeric.Plan
	bigPlan numeric.Plan
	useBig  bool
	promos  uint64
	regs    [ScratchRegs]numeric.Chunked

	// The uniform walk's selection tree and the deadline-ordered keys.
	merge LoserTree
	keys  []DeadlineKey
}

// ScratchRegs is the size of the chunk-register bank. The widest
// consumer is the combined bound computation (utilization, two linear
// sums, a term, a numerator, a denominator and a quotient scratch).
const ScratchRegs = 8

// NewScratch returns an empty Scratch.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool feeds analyzers that were not handed an explicit Scratch.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// GetScratch borrows a Scratch from the package pool. Return it with
// PutScratch when the analysis is done.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a borrowed Scratch to the pool. The caller must not
// use s afterwards.
func PutScratch(s *Scratch) {
	if s != nil {
		scratchPool.Put(s)
	}
}

// TestList returns the scratch test list, emptied and grown to hold n
// entries.
func (s *Scratch) TestList(n int) *TestList {
	s.list.Reset()
	s.list.Grow(n)
	return &s.list
}

// Jobs returns a zeroed int64 slice of length n.
func (s *Scratch) Jobs(n int) []int64 {
	if cap(s.jobs) < n {
		s.jobs = make([]int64, n)
	}
	s.jobs = s.jobs[:n]
	for i := range s.jobs {
		s.jobs[i] = 0
	}
	return s.jobs
}

// Ints returns an empty int slice with capacity for n elements.
func (s *Scratch) Ints(n int) []int {
	if cap(s.ints) < n {
		s.ints = make([]int, 0, n)
	}
	return s.ints[:0]
}

// Bools returns a zeroed bool slice of length n.
func (s *Scratch) Bools(n int) []bool {
	if cap(s.bools) < n {
		s.bools = make([]bool, n)
	}
	s.bools = s.bools[:n]
	for i := range s.bools {
		s.bools[i] = false
	}
	return s.bools
}

// Bind binds the register bank to the bounded-denominator chunk plan
// covering the sources' slope denominators, the plan every Util and
// register walk over the same sources computes on. A register walk binds
// before it starts: the brackets that decide most comparisons need no
// plan, so nothing else binds on their behalf. The plan is
// kept while the denominator sequence is unchanged (the common case:
// every stage of a cascade analyzes the same workload) and otherwise
// rebuilt from the longest prefix the sequence shares with the previous
// one (an admission session's next candidate differs from its last in a
// few trailing periods). A workload that genuinely exceeds the chunk cap
// gets an empty plan: its registers stay exact, every fraction on
// math/big, and each register's first fraction counts as a promotion.
func (s *Scratch) Bind(srcs []Uniform) {
	s.denBuf = slices.Grow(s.denBuf[:0], len(srcs))
	for _, src := range srcs {
		_, den := src.UtilRat()
		s.denBuf = append(s.denBuf, den)
	}
	s.arith()
}

// Util binds the register bank as Bind does and returns register 0
// holding the sources' total utilization Σ UtilRat, exactly, for callers
// that compute with U. A comparison of U with 1 is UtilCmpOne's, which
// binds and sums on the registers only when the fixed-point bracket
// cannot decide.
func (s *Scratch) Util(srcs []Uniform) *numeric.Chunked {
	s.Bind(srcs)
	return s.utilReg(srcs)
}

// UtilCmpOne returns the sign of U - 1 for the sources' total
// utilization U = Σ UtilRat. It decides on numeric.UtilSum's 128-bit
// fixed-point bracket, a few integer divisions per source whether or not
// a chunk plan covers the set, and binds the plan and sums U exactly on
// register 0 (Util) only when U lies within 2^-128 per source of 1,
// where the bracket cannot place it. A walk that follows binds for
// itself.
func (s *Scratch) UtilCmpOne(srcs []Uniform) int {
	var u numeric.UtilSum
	for _, src := range srcs {
		u = u.Add(src.UtilRat())
	}
	if c, ok := u.CmpOne(); ok {
		return c
	}
	return s.Util(srcs).CmpInt(1)
}

// utilReg sums the sources' utilization into register 0 on the bound
// plan.
func (s *Scratch) utilReg(srcs []Uniform) *numeric.Chunked {
	u := s.Reg(0)
	for _, src := range srcs {
		u.AddRat(src.UtilRat())
	}
	return u
}

// arith binds the registers to the plan for the key staged in denBuf,
// rebuilding it from the prefix the key shares with the plan's.
func (s *Scratch) arith() {
	shared := 0
	for shared < len(s.denBuf) && shared < len(s.planKey) && s.denBuf[shared] == s.planKey[shared] {
		shared++
	}
	if shared < len(s.denBuf) || shared < len(s.planKey) {
		// Fold the retiring plan's tally so ArithPromotions stays
		// monotonic across rebuilds.
		s.promos += s.plan.Promotions()
		s.plan.Rebuild(s.denBuf, shared)
		s.planKey = append(s.planKey[:shared], s.denBuf[shared:]...)
	}
	s.useBig = false
}

// ArithBigRat binds the register bank to an empty plan, so every
// fraction is computed in math/big: the reference arithmetic the chunk
// plans are tested against. Its promotions are deliberate and stay out
// of ArithPromotions.
func (s *Scratch) ArithBigRat() {
	s.useBig = true
}

// ArithPromotions returns the total fast-path exits recorded against
// this Scratch's chunk plans: values promoted to math/big, including
// those of workloads no plan could cover. The counter is monotonic over
// the Scratch's lifetime; callers attribute per-analysis promotions by
// delta.
func (s *Scratch) ArithPromotions() uint64 {
	return s.promos + s.plan.Promotions()
}

// Reg returns register i of the chunk-register bank, zeroed and bound to
// the plan of the last Bind or Util call, or to the math/big reference's
// empty plan after ArithBigRat. A register left on another set's plan
// still computes exactly, through promotions, so a walk that forgets to
// bind costs speed, not correctness. Registers are shared working
// memory: a computation owns the indices it uses until it returns.
func (s *Scratch) Reg(i int) *numeric.Chunked {
	if s.useBig {
		s.regs[i].Init(&s.bigPlan)
	} else {
		s.regs[i].Init(&s.plan)
	}
	return &s.regs[i]
}

// MergeTree returns the scratch loser tree reset for n sources. The
// caller seeds the leaves with Set and calls Build before selecting.
func (s *Scratch) MergeTree(n int) *LoserTree {
	s.merge.Reset(n)
	return &s.merge
}

// DeadlineKey is one task of a walk in deadline order: its relative
// deadline, WCET and period, and its position in the task set, which
// orders tasks with equal deadlines.
type DeadlineKey struct {
	D, C, T int64
	Index   int
}

// ByDeadline returns the tasks' keys sorted by non-decreasing relative
// deadline, ties in task-set order: the order of
// model.TaskSet.SortedByDeadline, without copying or moving tasks. The
// result is valid until the next ByDeadline call on the same Scratch.
func (s *Scratch) ByDeadline(ts model.TaskSet) []DeadlineKey {
	s.keys = slices.Grow(s.keys[:0], len(ts))
	for i, t := range ts {
		s.keys = append(s.keys, DeadlineKey{D: t.Deadline, C: t.WCET, T: t.Period, Index: i})
	}
	slices.SortFunc(s.keys, func(a, b DeadlineKey) int {
		if c := cmp.Compare(a.D, b.D); c != 0 {
			return c
		}
		return cmp.Compare(a.Index, b.Index)
	})
	return s.keys
}

// Sources adapts the task set to demand sources, rebuilding the scratch
// source slice in place: after the first call at a given size, no
// allocation happens. The returned slice is valid until the next Sources
// call on the same Scratch.
func (s *Scratch) Sources(ts model.TaskSet) []Uniform {
	s.srcs = slices.Grow(s.srcs[:0], len(ts))
	for _, t := range ts {
		s.srcs = append(s.srcs, UniformFromTask(t))
	}
	return s.srcs
}
