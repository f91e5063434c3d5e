package incremental

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/demand"
	"repro/internal/engine"
	"repro/internal/eventstream"
	"repro/internal/workload"
)

// refRebuild is the anchor walk on big.Rat accumulators, the reference
// the Scratch-register Rebuild must reproduce point for point: the same
// uQ32 precondition, the same level-L walk, the same ceiling.
func refRebuild(srcs []demand.Uniform, level int64) (pts, slack []int64, valid bool) {
	var uq uint64
	for _, src := range srcs {
		q, ok := slopeQ32(src.UtilRat())
		if !ok || uq > math.MaxUint64-q {
			return nil, nil, false
		}
		uq += q
	}
	var tl demand.TestList
	jobs := make([]int64, len(srcs))
	for i := range srcs {
		tl.Add(srcs[i].JobDeadline(1), i)
	}
	dbf, uready := new(big.Rat), new(big.Rat)
	var iold int64
	for !tl.Empty() {
		e := tl.Next()
		src := srcs[e.Src]
		jobs[e.Src]++
		dbf.Add(dbf, new(big.Rat).SetInt64(src.C))
		dbf.Add(dbf, new(big.Rat).Mul(uready, new(big.Rat).SetInt64(e.I-iold)))
		iold = e.I
		if jobs[e.Src] >= level {
			uready.Add(uready, big.NewRat(src.UtilRat()))
		} else {
			tl.Add(src.NextDeadline(e.I), e.Src)
		}
		if tl.Empty() || tl.Peek().I != e.I {
			num := new(big.Int).Add(dbf.Num(), new(big.Int).Sub(dbf.Denom(), big.NewInt(1)))
			c := num.Div(num, dbf.Denom())
			if !c.IsInt64() {
				return nil, nil, false
			}
			pts = append(pts, e.I)
			slack = append(slack, e.I-c.Int64())
		}
	}
	return pts, slack, true
}

// rebuildArena draws one source list of the given kind: 0 churn-shaped
// seeds, 1 log-uniform periods from 10 to 10^7 (every fifth arena has
// 200–300 sources, more than 32 chunks can cover), 2 one-shot sources
// only, 3 periodic sources mixed with one-shots.
func rebuildArena(t *testing.T, rng *rand.Rand, kind int) []demand.Uniform {
	t.Helper()
	switch kind {
	case 0:
		sc, err := churn.Generate("rebuild", churn.Config{
			SeedTasks: 5 + rng.Intn(96), Ops: 1, Events: rng.Intn(2) == 0,
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if sc.Seed.Kind() == workload.Events {
			return eventstream.Sources(sc.Seed.Events)
		}
		return demand.FromTasks(sc.Seed.Tasks)
	case 1:
		n := 1 + rng.Intn(150)
		if rng.Intn(5) == 0 {
			n = 200 + rng.Intn(101)
		}
		srcs := make([]demand.Uniform, n)
		for i := range srcs {
			p := int64(math.Pow(10, 1+6*rng.Float64()))
			c := 1 + rng.Int63n(max(p/int64(n), 1))
			srcs[i] = demand.Uniform{C: c, First: c + rng.Int63n(p), Sep: p}
		}
		return srcs
	}
	n := 1 + rng.Intn(40)
	srcs := make([]demand.Uniform, n)
	for i := range srcs {
		c := 1 + rng.Int63n(50)
		srcs[i] = demand.Uniform{C: c, First: c + rng.Int63n(5000)}
		if kind == 3 && rng.Intn(2) == 0 {
			srcs[i].Sep = 100 + rng.Int63n(10000)
		}
	}
	return srcs
}

// TestRebuildMatchesBigRat compares the Scratch-register anchor walk
// with the big.Rat reference over 600 arenas, on one Scratch reused
// across them as an admission controller does: points, slack floors and
// usability must agree exactly, whether the plan covers the periods,
// fails (registers promote), or holds no chunk at all (one-shots only).
func TestRebuildMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	sc := demand.NewScratch()
	promoted := 0
	for i := range 600 {
		kind := i % 4
		srcs := rebuildArena(t, rng, kind)
		st := New(engine.DefaultSuperPosLevel)
		p0 := sc.ArithPromotions()
		st.Rebuild(sc, srcs)
		if kind == 1 && sc.ArithPromotions() > p0 {
			promoted++
		}
		pts, slack, valid := refRebuild(srcs, st.level)
		if st.Usable() != valid {
			t.Fatalf("arena %d (kind %d): Usable = %v, reference %v", i, kind, st.Usable(), valid)
		}
		if len(st.pts) != len(pts) {
			t.Fatalf("arena %d (kind %d): %d points, reference %d", i, kind, len(st.pts), len(pts))
		}
		for k := range pts {
			if st.pts[k] != pts[k] || st.slack[k] != slack[k] {
				t.Fatalf("arena %d (kind %d) point %d: (%d, slack %d), reference (%d, slack %d)",
					i, kind, k, st.pts[k], st.slack[k], pts[k], slack[k])
			}
		}
	}
	if promoted == 0 {
		t.Fatal("no log-uniform arena left the chunk plan; the big.Rat fallback went untested")
	}
}
