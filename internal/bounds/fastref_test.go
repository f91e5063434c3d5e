package bounds

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/model"
)

// The reference implementations below are the original math/big versions
// of the bound formulas, kept verbatim so the chunk-register rewrites
// can be property-checked for bit-identical results.

var refOne = big.NewRat(1, 1)

// refUtil returns Σ UtilRat over the sources in math/big.
func refUtil(srcs []demand.Uniform) *big.Rat {
	u := new(big.Rat)
	for _, s := range srcs {
		u.Add(u, big.NewRat(s.UtilRat()))
	}
	return u
}

func refCeilRatInt64(r *big.Rat) (int64, bool) {
	if r.Sign() <= 0 {
		return 0, true
	}
	num := new(big.Int).Set(r.Num())
	den := r.Denom()
	num.Add(num, new(big.Int).Sub(den, big.NewInt(1)))
	q := num.Div(num, den)
	if !q.IsInt64() {
		return 0, false
	}
	return q.Int64(), true
}

func refGeorgeTerm(s demand.Uniform) *big.Rat {
	num, den := s.UtilRat()
	f := s.JobDeadline(1)
	t := new(big.Rat).Mul(big.NewRat(num, den), new(big.Rat).SetInt64(f))
	return t.Sub(new(big.Rat).SetInt64(s.C), t)
}

func refGeorge(srcs []demand.Uniform) (int64, bool) {
	u := refUtil(srcs)
	if u.Cmp(refOne) >= 0 {
		return 0, false
	}
	sum := new(big.Rat)
	for _, s := range srcs {
		if t := refGeorgeTerm(s); t.Sign() > 0 {
			sum.Add(sum, t)
		}
	}
	sum.Quo(sum, new(big.Rat).Sub(refOne, u))
	return refCeilRatInt64(sum)
}

func refSuperposition(srcs []demand.Uniform) (int64, bool) {
	u := refUtil(srcs)
	if u.Cmp(refOne) >= 0 {
		return 0, false
	}
	sum := new(big.Rat)
	var dmax int64
	for _, s := range srcs {
		sum.Add(sum, refGeorgeTerm(s))
		dmax = max(dmax, s.JobDeadline(1))
	}
	sum.Quo(sum, new(big.Rat).Sub(refOne, u))
	b, ok := refCeilRatInt64(sum)
	if !ok {
		return 0, false
	}
	return max(b, dmax), true
}

func refBaruah(ts model.TaskSet) (int64, bool) {
	if !ts.Constrained() {
		return 0, false
	}
	u := ts.Utilization()
	if u.Cmp(refOne) >= 0 {
		return 0, false
	}
	var maxGap int64
	for _, t := range ts {
		maxGap = max(maxGap, t.Period-t.Deadline)
	}
	if maxGap == 0 {
		return 0, true
	}
	den := new(big.Rat).Sub(refOne, u)
	b := new(big.Rat).Quo(u, den)
	b.Mul(b, new(big.Rat).SetInt64(maxGap))
	return refCeilRatInt64(b)
}

// randomBoundSet draws a task set over the given period range, biased
// toward utilizations near (but sometimes above) 1.
func randomBoundSet(rng *rand.Rand, periodMax int64) model.TaskSet {
	n := rng.Intn(20) + 1
	ts := make(model.TaskSet, 0, n)
	for range n {
		t := rng.Int63n(periodMax-2) + 2
		c := rng.Int63n(max(t/int64(n), 1)) + 1
		d := c + rng.Int63n(t)
		ts = append(ts, model.Task{WCET: c, Deadline: d, Period: t})
	}
	return ts
}

// TestFastBoundsMatchReference property-checks the chunk-register bound
// computations against the original big.Rat formulas, over small, round
// and overflow-prone huge parameter ranges.
func TestFastBoundsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	ranges := []int64{50, 100000, 1 << 40, 1 << 62}
	for i := range 600 {
		ts := randomBoundSet(rng, ranges[i%len(ranges)])
		srcs := demand.FromTasks(ts)
		if gb, gok := George(srcs); true {
			wb, wok := refGeorge(srcs)
			if gb != wb || gok != wok {
				t.Fatalf("George(%v) = (%d,%v), ref (%d,%v)", ts, gb, gok, wb, wok)
			}
		}
		if sb, sok := Superposition(srcs); true {
			wb, wok := refSuperposition(srcs)
			if sb != wb || sok != wok {
				t.Fatalf("Superposition(%v) = (%d,%v), ref (%d,%v)", ts, sb, sok, wb, wok)
			}
		}
		if bb, bok := Baruah(ts); true {
			wb, wok := refBaruah(ts)
			if bb != wb || bok != wok {
				t.Fatalf("Baruah(%v) = (%d,%v), ref (%d,%v)", ts, bb, bok, wb, wok)
			}
		}
		if gb, gok := GeorgeWithBlocking(srcs, rng.Int63n(1000)); gok {
			_ = gb // smoke: must not panic; exactness is covered via George's shared path
		}
		lg, lokG, ls, lokS := LinearBounds(srcs)
		gb, gok := George(srcs)
		sb, sok := Superposition(srcs)
		if lg != gb || lokG != gok || ls != sb || lokS != sok {
			t.Fatalf("LinearBounds(%v) = (%d,%v,%d,%v), want George (%d,%v) / Superposition (%d,%v)",
				ts, lg, lokG, ls, lokS, gb, gok, sb, sok)
		}
	}
	// One-shot sources only: U = 0, every slope denominator is 1 and the
	// plan holds no chunk.
	for i := range 200 {
		srcs := []demand.Uniform{{C: 2, First: 10}, {C: 3, First: 20}}
		if i > 0 {
			srcs = make([]demand.Uniform, 1+rng.Intn(10))
			for k := range srcs {
				c := 1 + rng.Int63n(50)
				srcs[k] = demand.Uniform{C: c, First: c + rng.Int63n(1000)}
			}
		}
		gb, gok := George(srcs)
		if wb, wok := refGeorge(srcs); gb != wb || gok != wok {
			t.Fatalf("George(%v) = (%d,%v), ref (%d,%v)", srcs, gb, gok, wb, wok)
		}
		sb, sok := Superposition(srcs)
		if wb, wok := refSuperposition(srcs); sb != wb || sok != wok {
			t.Fatalf("Superposition(%v) = (%d,%v), ref (%d,%v)", srcs, sb, sok, wb, wok)
		}
		if lg, lokG, ls, lokS := LinearBounds(srcs); lg != gb || lokG != gok || ls != sb || lokS != sok {
			t.Fatalf("LinearBounds(%v) = (%d,%v,%d,%v), want George (%d,%v) / Superposition (%d,%v)",
				srcs, lg, lokG, ls, lokS, gb, gok, sb, sok)
		}
	}
}

// TestBestSourcesMatchesBest pins the scratch-oriented entry point, on
// one Scratch reused across sets, to the classic one.
func TestBestSourcesMatchesBest(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	sc := demand.NewScratch()
	for range 300 {
		ts := randomBoundSet(rng, 10000)
		b1, k1, ok1 := Best(ts)
		b2, k2, ok2 := BestSourcesScratch(ts, demand.FromTasks(ts), sc)
		if b1 != b2 || k1 != k2 || ok1 != ok2 {
			t.Fatalf("BestSources(%v) = (%d,%s,%v), Best (%d,%s,%v)", ts, b2, k2, ok2, b1, k1, ok1)
		}
	}
}
