package incremental

import (
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/engine"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/workload"
)

// approxAt computes the exact level-L approximated demand dbf'(I) of a
// source list as a rational — the reference the anchor's integer slack
// floors are validated against.
func approxAt(srcs []demand.Uniform, level, I int64) *big.Rat {
	sum := new(big.Rat)
	for _, s := range srcs {
		if I < s.First {
			continue
		}
		jobs := int64(1)
		if s.Sep > 0 {
			jobs = (I-s.First)/s.Sep + 1
		}
		if jobs > level {
			jobs = level
		}
		d := new(big.Rat).SetInt64(jobs * s.C)
		if s.Sep > 0 && jobs == level {
			im := s.First + (level-1)*s.Sep
			if I > im {
				tail := big.NewRat(s.C*(I-im), s.Sep)
				d.Add(d, tail)
			}
		}
		sum.Add(sum, d)
	}
	return sum
}

// sources lowers tk exactly as the state stages it: the tests keep their
// own list of the sources a State certifies, which the State itself does
// not store.
func sources(tk workload.Task) []demand.Uniform {
	var st State
	st.stage(tk)
	return st.staged
}

// checkInvariant asserts slack_k <= I_k - dbf'(I_k) at every anchor point,
// dbf' taken over srcs, the sources of every task admitted so far.
func checkInvariant(t *testing.T, st *State, srcs []demand.Uniform) {
	t.Helper()
	for k, I := range st.pts {
		bound := new(big.Rat).SetInt64(I - st.slack[k])
		if d := approxAt(srcs, st.level, I); bound.Cmp(d) < 0 {
			t.Fatalf("anchor invariant broken at I=%d: I-slack=%s < dbf'=%s",
				I, bound.RatString(), d.RatString())
		}
	}
}

func randTask(r *rand.Rand) model.Task {
	period := int64(10 + r.Intn(1000))
	c := 1 + r.Int63n(period/4+1)
	d := c + r.Int63n(2*period)
	return model.Task{WCET: c, Deadline: d, Period: period}
}

func randEventTask(r *rand.Rand) eventstream.Task {
	c := 1 + r.Int63n(40)
	et := eventstream.Task{WCET: c, Deadline: c + r.Int63n(500)}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		e := eventstream.Element{Offset: r.Int63n(200)}
		if r.Intn(5) > 0 {
			e.Cycle = 50 + r.Int63n(2000)
		}
		et.Stream = append(et.Stream, e)
	}
	return et
}

func utilOf(srcs []demand.Uniform) *big.Rat {
	u := new(big.Rat)
	for _, s := range srcs {
		n, d := s.UtilRat()
		u.Add(u, big.NewRat(n, d))
	}
	return u
}

// TestFoldMatchesRebuild folds tasks one at a time and asserts the folded
// anchor covers exactly the points a from-scratch rebuild walks, with
// slack floors that stay sound against the exact rational approximation.
func TestFoldMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		st := New(engine.DefaultSuperPosLevel)
		st.Rebuild(demand.NewScratch(), nil)
		var srcs []demand.Uniform
		n := 2 + r.Intn(12)
		for i := 0; i < n; i++ {
			var tk workload.Task
			if seed%2 == 0 {
				m := randTask(r)
				tk = workload.Task{Sporadic: &m}
			} else {
				e := randEventTask(r)
				tk = workload.Task{Event: &e}
			}
			st.Admit(tk)
			srcs = append(srcs, sources(tk)...)
			if !st.valid {
				t.Fatalf("seed %d: fold overflowed on small parameters", seed)
			}
			checkInvariant(t, st, srcs)
		}
		ref := New(engine.DefaultSuperPosLevel)
		ref.Rebuild(demand.NewScratch(), srcs)
		if !ref.valid {
			t.Fatalf("seed %d: rebuild failed on small parameters", seed)
		}
		if len(ref.pts) != len(st.pts) {
			t.Fatalf("seed %d: fold has %d points, rebuild %d", seed, len(st.pts), len(ref.pts))
		}
		for k := range ref.pts {
			if ref.pts[k] != st.pts[k] {
				t.Fatalf("seed %d: point %d differs: fold %d, rebuild %d",
					seed, k, st.pts[k], ref.pts[k])
			}
			if st.slack[k] > ref.slack[k] {
				t.Fatalf("seed %d: folded slack %d at I=%d exceeds rebuilt slack %d",
					seed, st.slack[k], st.pts[k], ref.slack[k])
			}
		}
	}
}

// TestCheckSound asserts the certificate's accepts are truthful: whenever
// Check passes and the grown utilization is strictly below 1, the exact
// cascade finds the grown set feasible.
func TestCheckSound(t *testing.T) {
	cascade, ok := engine.Get("cascade")
	if !ok {
		t.Fatal("cascade analyzer not registered")
	}
	accepts := 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		var ts model.TaskSet
		st := New(engine.DefaultSuperPosLevel)
		for i := 0; i < 1+r.Intn(10); i++ {
			ts = append(ts, randTask(r))
		}
		srcs := demand.FromTasks(ts)
		st.Rebuild(demand.NewScratch(), srcs)
		if !st.Usable() {
			continue
		}
		// The admission invariant: the committed set is only ever one the
		// exact analyzer admitted.
		if cascade.Analyze(ts, core.Options{}).Verdict != core.Feasible {
			continue
		}
		m := randTask(r)
		ok, _ := st.Check(workload.Task{Sporadic: &m})
		if !ok {
			continue
		}
		grown := utilOf(srcs)
		sm := demand.UniformFromTask(m)
		n, d := sm.UtilRat()
		grown.Add(grown, big.NewRat(n, d))
		if grown.Cmp(big.NewRat(1, 1)) >= 0 {
			continue
		}
		accepts++
		res := cascade.Analyze(append(ts.Clone(), m), core.Options{})
		if res.Verdict != core.Feasible {
			t.Fatalf("seed %d: certificate accepted but cascade says %s for %+v + %+v",
				seed, res.Verdict, ts, m)
		}
	}
	if accepts < 20 {
		t.Fatalf("only %d certificate accepts across all seeds; test is near-vacuous", accepts)
	}
}

// TestCommitRollback asserts Rollback restores the committed snapshot
// bit-exactly, whatever happened since the commit.
func TestCommitRollback(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	st := New(engine.DefaultSuperPosLevel)
	var ts model.TaskSet
	for i := 0; i < 6; i++ {
		ts = append(ts, randTask(r))
	}
	st.Rebuild(demand.NewScratch(), demand.FromTasks(ts))
	if !st.Usable() {
		t.Fatal("rebuild failed on small parameters")
	}
	st.Commit()
	type anchor struct {
		pts, slack []int64
		uQ32       uint64
		valid      bool
	}
	snap := func() anchor {
		return anchor{slices.Clone(st.pts), slices.Clone(st.slack), st.uQ32, st.valid}
	}
	want := snap()
	checkAnchor := func(when string, want anchor) {
		t.Helper()
		got := snap()
		if got.uQ32 != want.uQ32 || got.valid != want.valid {
			t.Fatalf("%s: uQ32 %d want %d, valid %v want %v", when, got.uQ32, want.uQ32, got.valid, want.valid)
		}
		if len(got.pts) != len(want.pts) {
			t.Fatalf("%s: anchor size %d, want %d", when, len(got.pts), len(want.pts))
		}
		for k := range want.pts {
			if got.pts[k] != want.pts[k] || got.slack[k] != want.slack[k] {
				t.Fatalf("%s: anchor differs at %d: (%d,%d) want (%d,%d)",
					when, k, got.pts[k], got.slack[k], want.pts[k], want.slack[k])
			}
		}
	}

	for i := 0; i < 10; i++ {
		m := randTask(r)
		st.Admit(workload.Task{Sporadic: &m})
	}
	if st.uQ32 == want.uQ32 {
		t.Fatal("admits did not raise the utilization bound")
	}
	st.Rollback()
	checkAnchor("rollback", want)

	// Rollback twice is idempotent; a fresh commit then sticks.
	st.Rollback()
	checkAnchor("second rollback", want)
	m := randTask(r)
	st.Admit(workload.Task{Sporadic: &m})
	st.Commit()
	committed := snap()
	if committed.uQ32 == want.uQ32 {
		t.Fatal("the committed admit did not raise the utilization bound")
	}
	st.Rollback()
	checkAnchor("rollback after commit", committed)
}

// TestOverflowEscalates drives the fold into int64 overflow and asserts
// the state turns itself unusable instead of lying.
func TestOverflowEscalates(t *testing.T) {
	st := New(engine.DefaultSuperPosLevel)
	huge := model.Task{WCET: 1 << 62, Deadline: 1 << 62, Period: 1 << 62}
	st.Rebuild(demand.NewScratch(), demand.FromTasks(model.TaskSet{huge}))
	if !st.Usable() {
		t.Skip("rebuild already rejected the huge set")
	}
	for i := 0; i < 64 && st.Usable(); i++ {
		st.Admit(workload.Task{Sporadic: &huge})
	}
	if st.Usable() {
		t.Fatal("state stayed usable through guaranteed overflow")
	}
	// An unusable state must refuse certificates.
	m := model.Task{WCET: 1, Deadline: 10, Period: 10}
	if ok, _ := st.Check(workload.Task{Sporadic: &m}); ok {
		t.Fatal("unusable state issued a certificate")
	}
}

// TestOneShotSources exercises Sep == 0 lowering through fold and check.
func TestOneShotSources(t *testing.T) {
	st := New(engine.DefaultSuperPosLevel)
	st.Rebuild(demand.NewScratch(), nil)
	one := eventstream.Task{WCET: 5, Deadline: 10, Stream: eventstream.Stream{{Offset: 0, Cycle: 0}}}
	st.Admit(workload.Task{Event: &one})
	if !st.valid {
		t.Fatal("one-shot fold failed")
	}
	srcs := sources(workload.Task{Event: &one})
	checkInvariant(t, st, srcs)
	// A second one-shot at the same deadline must still certify: demand
	// 10 into interval 10.
	two := eventstream.Task{WCET: 5, Deadline: 10, Stream: eventstream.Stream{{Offset: 0, Cycle: 0}}}
	ok, _ := st.Check(workload.Task{Event: &two})
	if !ok {
		t.Fatal("certificate rejected a trivially feasible one-shot")
	}
	st.Admit(workload.Task{Event: &two})
	checkInvariant(t, st, append(srcs, sources(workload.Task{Event: &two})...))
	// A third overloads interval 10 (demand 15 > 10): must not certify.
	if ok, _ := st.Check(workload.Task{Event: &two}); ok {
		t.Fatal("certificate accepted an infeasible one-shot")
	}
}
