package numeric

import (
	"math/big"
	"math/rand"
	"testing"
)

// buildPlan builds a plan from dens or fails the test.
func buildPlan(t *testing.T, dens []int64) *Plan {
	t.Helper()
	var p Plan
	if !p.Build(dens) {
		t.Fatalf("plan build failed for %v", dens)
	}
	return &p
}

func TestPlanBuildGridCollapses(t *testing.T) {
	var p Plan
	if !p.Build([]int64{10, 20, 50, 100, 200, 500, 1000}) {
		t.Fatal("grid build failed")
	}
	if p.Chunks() != 1 {
		t.Fatalf("grid periods should fold into one chunk, got %d", p.Chunks())
	}
	if p.dens[0] != 1000 {
		t.Fatalf("chunk denominator = %d, want 1000", p.dens[0])
	}
}

func TestPlanBuildRejects(t *testing.T) {
	var p Plan
	if p.Build([]int64{0}) {
		t.Error("zero denominator accepted")
	}
	if p.Build([]int64{-3}) {
		t.Error("negative denominator accepted")
	}
	if p.Build([]int64{chunkDenCap + 1}) {
		t.Error("denominator above the cap accepted")
	}
	// MaxChunks+1 pairwise-coprime primes near 2^31: no two fit one chunk.
	dens := make([]int64, 0, MaxChunks+1)
	for v := int64(1<<31) + 11; len(dens) < MaxChunks+1; v += 2 {
		if big.NewInt(v).ProbablyPrime(20) {
			dens = append(dens, v)
		}
	}
	if p.Build(dens) {
		t.Error("more than MaxChunks coprime denominators accepted")
	}
	if p.Build(dens[:MaxChunks]) != true || p.Chunks() != MaxChunks {
		t.Error("exactly MaxChunks coprime denominators should fit")
	}
}

func TestPlanBuildIgnoresOne(t *testing.T) {
	var p Plan
	if !p.Build([]int64{1, 1, 7, 1}) {
		t.Fatal("build failed")
	}
	if p.Chunks() != 1 {
		t.Fatalf("chunks = %d, want 1", p.Chunks())
	}
}

// chunkedOps drives one random op sequence over a Chunked register and a
// big.Rat shadow, checking exact agreement after every op. dens feed the
// plan; rng drives the ops. Returns false if the plan does not build.
func chunkedOps(t *testing.T, dens []int64, rng *rand.Rand, steps int) {
	t.Helper()
	var p Plan
	if !p.Build(dens) {
		t.Fatalf("plan build failed for %v", dens)
	}
	var v, u, tmp Chunked
	v.Init(&p)
	u.Init(&p)
	tmp.Init(&p)
	ref := new(big.Rat)
	uref := new(big.Rat)
	den := func() int64 { return dens[rng.Intn(len(dens))] }
	check := func(op string) {
		t.Helper()
		if got := v.Rat(); got.Cmp(ref) != 0 {
			t.Fatalf("%s: chunked=%s ref=%s (plan %v)", op, got, ref, dens[:min(8, len(dens))])
		}
	}
	for i := 0; i < steps; i++ {
		switch rng.Intn(10) {
		case 0:
			x := rng.Int63n(1_000_000) - 500_000
			v.AddInt(x)
			ref.Add(ref, new(big.Rat).SetInt64(x))
			check("AddInt")
		case 1:
			d := den()
			n := rng.Int63n(2*d+10) - d
			v.AddRat(n, d)
			ref.Add(ref, big.NewRat(n, d))
			check("AddRat")
		case 2:
			d := den()
			n := rng.Int63n(2*d+10) - d
			v.SubRat(n, d)
			ref.Sub(ref, big.NewRat(n, d))
			check("SubRat")
		case 3:
			dt := rng.Int63n(1 << 40)
			v.AddScaled(&u, dt)
			prod := new(big.Rat).Mul(uref, new(big.Rat).SetInt64(dt))
			ref.Add(ref, prod)
			check("AddScaled")
		case 4:
			x := rng.Int63n(1<<20) - 1<<19
			v.MulInt(x)
			ref.Mul(ref, new(big.Rat).SetInt64(x))
			check("MulInt")
		case 5:
			v.Neg()
			ref.Neg(ref)
			check("Neg")
		case 6:
			// Mutate the second register (the AddScaled slope).
			d := den()
			n := rng.Int63n(d + 3)
			u.AddRat(n, d)
			uref.Add(uref, big.NewRat(n, d))
			v.Add(&u)
			ref.Add(ref, uref)
			check("Add")
		case 7:
			v.Sub(&u)
			ref.Sub(ref, uref)
			check("Sub")
		case 8:
			x := rng.Int63n(1_000_000) - 500_000
			if got, want := v.CmpInt(x), ref.Cmp(new(big.Rat).SetInt64(x)); got != want {
				t.Fatalf("CmpInt(%d) = %d, want %d (v=%s)", x, got, want, ref)
			}
			if got, want := v.Sign(), ref.Sign(); got != want {
				t.Fatalf("Sign = %d, want %d (v=%s)", got, want, ref)
			}
		case 9:
			if got, want := v.Cmp(&u), ref.Cmp(uref); got != want {
				t.Fatalf("Cmp = %d, want %d (v=%s u=%s)", got, want, ref, uref)
			}
		}
	}
}

func TestChunkedRandomOpsGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dens := []int64{10, 20, 50, 100, 1000, 2000, 5000}
	for trial := 0; trial < 30; trial++ {
		chunkedOps(t, dens, rng, 200)
	}
}

func TestChunkedRandomOpsSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		dens := make([]int64, 40)
		for i := range dens {
			dens[i] = 1 + rng.Int63n(10_000_000)
		}
		chunkedOps(t, dens, rng, 120)
	}
}

func TestChunkedRandomOpsCapBoundary(t *testing.T) {
	// Denominators engineered so single chunks sit just under the cap:
	// large primes multiplied pairwise approach 2^62.
	rng := rand.New(rand.NewSource(3))
	primes := []int64{2147483647, 2147483629, 2147483587, 2305843009} // ~2^31
	for trial := 0; trial < 20; trial++ {
		dens := make([]int64, 0, 12)
		for i := 0; i < 12; i++ {
			dens = append(dens, primes[rng.Intn(len(primes))])
		}
		chunkedOps(t, dens, rng, 100)
	}
}

func TestChunkedPromotionOnOverflow(t *testing.T) {
	p := buildPlan(t, []int64{7})
	var v Chunked
	v.Init(p)
	v.SetInt(MaxInt64 - 1)
	before := p.Promotions()
	v.AddInt(100) // overflows ip -> promotes
	if !v.Promoted() {
		t.Fatal("expected promotion on ip overflow")
	}
	if p.Promotions() != before+1 {
		t.Fatalf("promotions = %d, want %d", p.Promotions(), before+1)
	}
	want := new(big.Rat).SetInt64(MaxInt64 - 1)
	want.Add(want, new(big.Rat).SetInt64(100))
	if v.Rat().Cmp(want) != 0 {
		t.Fatalf("promoted value = %s, want %s", v.Rat(), want)
	}
	// Promoted registers keep computing exactly.
	v.AddRat(3, 7)
	want.Add(want, big.NewRat(3, 7))
	if v.Rat().Cmp(want) != 0 {
		t.Fatalf("promoted AddRat = %s, want %s", v.Rat(), want)
	}
}

func TestChunkedCmpIntTight(t *testing.T) {
	// Values an epsilon away from an integer exercise the digit recursion.
	p := buildPlan(t, []int64{999999937, 999999893}) // two large primes
	var v Chunked
	v.Init(p)
	v.AddRat(999999936, 999999937) // 1 - 1/p1
	v.AddRat(1, 999999893)         // + 1/p2
	// v = 1 - 1/p1 + 1/p2 < 1 (p2 < p1 means 1/p2 > 1/p1... p2 smaller
	// prime so 1/p2 > 1/p1: v > 1).
	want := new(big.Rat)
	want.Add(want, big.NewRat(999999936, 999999937))
	want.Add(want, big.NewRat(1, 999999893))
	if got := v.CmpInt(1); got != want.Cmp(new(big.Rat).SetInt64(1)) {
		t.Fatalf("CmpInt(1) = %d, want %d", got, want.Cmp(new(big.Rat).SetInt64(1)))
	}
	// Exact integer hit: 1/3 + 2/3 over one chunk... use same den.
	p2 := buildPlan(t, []int64{3})
	var w Chunked
	w.Init(p2)
	w.AddRat(1, 3)
	w.AddRat(2, 3)
	if got := w.CmpInt(1); got != 0 {
		t.Fatalf("1/3+2/3 CmpInt(1) = %d, want 0", got)
	}
	// Cross-chunk exact integer: 1/3 + 1/5 + 2/3 + 4/5 = 2 with coprime
	// chunks forced apart by a tiny cap is not constructible here (the
	// plan folds 3 and 5 into 15); split via primes too big to fold.
	const p1, q1 = int64(2305843009213693951), int64(4611686018427387847) // 2^61-1 (prime), < 2^62
	pp := buildPlan(t, []int64{p1, q1})
	if pp.Chunks() != 2 {
		t.Fatalf("expected 2 chunks, got %d", pp.Chunks())
	}
	var x Chunked
	x.Init(pp)
	x.AddRat(p1-1, p1)
	x.AddRat(1, p1)
	x.AddRat(q1-5, q1)
	x.AddRat(5, q1)
	if got := x.CmpInt(2); got != 0 {
		t.Fatalf("cross-chunk exact 2: CmpInt(2) = %d, want 0", got)
	}
	if got := x.CmpInt(3); got != -1 {
		t.Fatalf("CmpInt(3) = %d, want -1", got)
	}
}

func TestQuoCeilChunked(t *testing.T) {
	p := buildPlan(t, []int64{1000, 999999937})
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 500; trial++ {
		var a, b, tmp Chunked
		a.Init(p)
		b.Init(p)
		tmp.Init(p)
		ar := new(big.Rat)
		br := new(big.Rat)
		a.AddInt(rng.Int63n(1 << 40))
		ar.SetInt64(a.ip)
		n := rng.Int63n(1000)
		a.AddRat(n, 1000)
		ar.Add(ar, big.NewRat(n, 1000))
		// b in (0, 1]: 1 - k/p.
		k := rng.Int63n(999999937)
		b.AddInt(1)
		b.SubRat(k, 999999937)
		br.SetInt64(1)
		br.Sub(br, big.NewRat(k, 999999937))
		got, ok := QuoCeilChunked(&a, &b, &tmp)
		want, wok := quoCeilBig(ar, br)
		if ok != wok || got != want {
			t.Fatalf("QuoCeil(%s / %s) = (%d,%v), want (%d,%v)", ar, br, got, ok, want, wok)
		}
	}
	// Zero numerator.
	var a, b, tmp Chunked
	a.Init(p)
	b.Init(p)
	tmp.Init(p)
	b.AddRat(1, 1000)
	if got, ok := QuoCeilChunked(&a, &b, &tmp); !ok || got != 0 {
		t.Fatalf("QuoCeil(0/x) = (%d,%v), want (0,true)", got, ok)
	}
}

// TestFastQuoCeil compares QuoCeilChunked with an arbitrary-precision
// reference over small and large operands. Each pair runs on registers
// bound to a plan over its chunkable denominators, where large operands
// promote on a denominator no chunk can hold, and on registers bound to
// an empty plan, where every fraction is carried in math/big.
func TestFastQuoCeil(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ceilRef := func(s, o *big.Rat) (int64, bool) {
		q := new(big.Rat).Quo(s, o)
		num := new(big.Int).Set(q.Num())
		den := q.Denom()
		num.Add(num, new(big.Int).Sub(den, big.NewInt(1)))
		num.Div(num, den)
		if !num.IsInt64() {
			return 0, false
		}
		return num.Int64(), true
	}
	var empty Plan
	for i := range 5000 {
		var sn, sd, on, od int64
		var dens []int64
		if i%3 == 0 {
			// Large operands: the cross products exceed int64.
			sn, sd = MaxInt64-rng.Int63n(1000), rng.Int63n(1000)+1
			on, od = rng.Int63n(1000)+1, MaxInt64-rng.Int63n(1000)
			dens = []int64{sd}
		} else {
			sn, sd = rng.Int63n(1_000_000), rng.Int63n(1000)+1
			on, od = rng.Int63n(1000)+1, rng.Int63n(1000)+1
			dens = []int64{sd, od}
		}
		want, wantOK := ceilRef(big.NewRat(sn, sd), big.NewRat(on, od))
		for _, p := range []*Plan{buildPlan(t, dens), &empty} {
			var s, o, tmp Chunked
			s.Init(p)
			o.Init(p)
			tmp.Init(p)
			s.AddRat(sn, sd)
			o.AddRat(on, od)
			got, ok := QuoCeilChunked(&s, &o, &tmp)
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("QuoCeil(%d/%d / %d/%d) on %d chunks = (%d, %v), want (%d, %v)",
					sn, sd, on, od, p.Chunks(), got, ok, want, wantOK)
			}
		}
	}
}

// TestFastQuoCeilWrap pins the wrap regression: a quotient beyond int64
// must report ok=false. 31/2 over 1/1190112520884487201 is (2^65-1)/2,
// whose ceiling a 128-bit division would wrap to zero and claim (0, true).
func TestFastQuoCeilWrap(t *testing.T) {
	const wide = int64(1190112520884487201)
	p := buildPlan(t, []int64{2, wide})
	var a, b, tmp Chunked
	a.Init(p)
	b.Init(p)
	tmp.Init(p)
	a.AddRat(31, 2)
	b.AddRat(1, wide)
	got, ok := QuoCeilChunked(&a, &b, &tmp)
	wantV, wantOK := quoCeilBig(a.Rat(), b.Rat())
	if ok != wantOK || (ok && got != wantV) {
		t.Fatalf("QuoCeil = (%d, %v), big reference (%d, %v)", got, ok, wantV, wantOK)
	}
	if ok {
		t.Fatalf("a quotient beyond int64 must not report ok")
	}
}

// TestQuoCeilChunkedPromotesOnce pins the promotion cost of one
// quotient. b = 1 - Σ (d/40)/d over 20 coprime chunk denominators has
// integer part -19 and near-full chunk numerators, so every bracket probe
// b*q overflows in its intermediates although the product itself fits.
// The quotient must settle with a single promotion, not one per probe.
func TestQuoCeilChunkedPromotesOnce(t *testing.T) {
	var dens []int64
	for v := int64(1<<61) + 1; len(dens) < 20; v += 2 {
		if big.NewInt(v).ProbablyPrime(20) {
			dens = append(dens, v)
		}
	}
	p := buildPlan(t, dens)
	var u, a, b, tmp Chunked
	u.Init(p)
	a.Init(p)
	b.Init(p)
	tmp.Init(p)
	for _, d := range dens {
		u.AddRat(d/40, d)
	}
	b.SetInt(1)
	b.Sub(&u)
	a.SetInt(1 << 60)
	a.AddRat(5, dens[0])
	before := p.Promotions()
	got, ok := QuoCeilChunked(&a, &b, &tmp)
	if n := p.Promotions() - before; n > 1 {
		t.Fatalf("one quotient added %d promotions, want at most 1", n)
	}
	want, wok := quoCeilBig(a.Rat(), b.Rat())
	if ok != wok || got != want {
		t.Fatalf("QuoCeil = (%d,%v), want (%d,%v)", got, ok, want, wok)
	}
}

// TestChunkedMulInt pins MulInt exactness, including (C/T)·T staying an
// unpromoted integer for a period near the chunk cap.
func TestChunkedMulInt(t *testing.T) {
	const period = chunkDenCap - 57
	p := buildPlan(t, []int64{period})
	var v Chunked
	v.Init(p)
	v.AddRat(3, period)
	v.MulInt(period)
	if v.Promoted() || v.CmpInt(3) != 0 {
		t.Fatalf("(3/p)*p = %s promoted=%v, want 3 unpromoted", v.Rat(), v.Promoted())
	}
	rng := rand.New(rand.NewSource(3))
	for range 2000 {
		d := rng.Int63n(1<<20) + 1
		p := buildPlan(t, []int64{d})
		v.Init(p)
		n := rng.Int63n(1<<40) - 1<<39
		v.AddRat(n, d)
		x := rng.Int63n(1 << 30)
		v.MulInt(x)
		want := new(big.Rat).Mul(big.NewRat(n, d), big.NewRat(x, 1))
		if got := v.Rat(); got.Cmp(want) != 0 {
			t.Fatalf("(%d/%d)*%d = %s, want %s", n, d, x, got, want)
		}
	}
}

func TestChunkedCopyFromIsolation(t *testing.T) {
	p := buildPlan(t, []int64{7})
	var v, w Chunked
	v.Init(p)
	w.Init(p)
	v.SetInt(MaxInt64 - 1)
	v.AddInt(10) // promote
	w.CopyFrom(&v)
	w.AddInt(5)
	diff := new(big.Rat).Sub(w.Rat(), v.Rat())
	if diff.Cmp(new(big.Rat).SetInt64(5)) != 0 {
		t.Fatalf("CopyFrom shares promoted storage: diff = %s", diff)
	}
}

// FuzzChunkedVsBigRat cross-checks a short op program against big.Rat
// on two register pairs: one bound to a plan over the program's
// denominators and one bound to an empty plan, the path of unplannable
// workloads and of the big.Rat reference arithmetic. The program bytes
// select ops and operands so the fuzzer can explore carry, borrow,
// promotion and comparison edges.
func FuzzChunkedVsBigRat(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, int64(1000), int64(999999937))
	f.Add([]byte{1, 1, 1, 8, 3, 9, 2, 2, 8}, int64(3), int64(5))
	f.Add([]byte{4, 4, 4, 8}, int64(2147483647), int64(2305843009))
	f.Fuzz(func(t *testing.T, prog []byte, d1, d2 int64) {
		if d1 <= 0 || d2 <= 0 || d1 > chunkDenCap || d2 > chunkDenCap {
			return
		}
		var p, empty Plan
		if !p.Build([]int64{d1, d2}) {
			return
		}
		var regs [2]struct{ v, u Chunked }
		regs[0].v.Init(&p)
		regs[0].u.Init(&p)
		regs[1].v.Init(&empty)
		regs[1].u.Init(&empty)
		ref := new(big.Rat)
		uref := new(big.Rat)
		dens := []int64{d1, d2}
		for i, op := range prog {
			if i > 64 {
				break
			}
			x := int64(i)*7919 + int64(op)
			d := dens[int(op/16)%2]
			switch op % 8 {
			case 0:
				ref.Add(ref, new(big.Rat).SetInt64(x))
			case 1:
				ref.Add(ref, big.NewRat(x%d+1, d))
			case 2:
				ref.Sub(ref, big.NewRat(x%d+1, d))
			case 3:
				prod := new(big.Rat).Mul(uref, new(big.Rat).SetInt64(x))
				ref.Add(ref, prod)
			case 4:
				ref.Mul(ref, new(big.Rat).SetInt64(x%1000))
			case 5:
				uref.Add(uref, big.NewRat(x%d, d))
			case 6:
				ref.Neg(ref)
			}
			for k := range regs {
				v, u := &regs[k].v, &regs[k].u
				switch op % 8 {
				case 0:
					v.AddInt(x)
				case 1:
					v.AddRat(x%d+1, d)
				case 2:
					v.SubRat(x%d+1, d)
				case 3:
					v.AddScaled(u, x)
				case 4:
					v.MulInt(x % 1000)
				case 5:
					u.AddRat(x%d, d)
				case 6:
					v.Neg()
				case 7:
					if got, want := v.CmpInt(x%5), ref.Cmp(new(big.Rat).SetInt64(x%5)); got != want {
						t.Fatalf("op %d reg %d: CmpInt(%d) = %d, want %d (v=%s)", i, k, x%5, got, want, ref)
					}
				}
				if got := v.Rat(); got.Cmp(ref) != 0 {
					t.Fatalf("op %d (%d) reg %d: chunked=%s ref=%s", i, op, k, got, ref)
				}
			}
		}
	})
}

// FuzzFastVsBigRat cross-checks the Fast session sums against big.Rat
// the same way, covering the promotion/demotion boundary. Subtraction is
// AddRat with a negated numerator, as the sessions use it.
func FuzzFastVsBigRat(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, int64(1<<40), int64(999999937))
	f.Add([]byte{1, 1, 1, 1, 1, 1}, int64(2305843009213693951), int64(4611686018427387847))
	f.Fuzz(func(t *testing.T, prog []byte, d1, d2 int64) {
		if d1 <= 0 || d2 <= 0 {
			return
		}
		var v Fast
		ref := new(big.Rat)
		dens := []int64{d1, d2}
		for i, op := range prog {
			if i > 64 {
				break
			}
			x := int64(i)*104729 + int64(op)
			d := dens[int(op/16)%2]
			switch op % 6 {
			case 0:
				v = v.AddInt(x)
				ref.Add(ref, new(big.Rat).SetInt64(x))
			case 1:
				v = v.AddRat(x%d+1, d)
				ref.Add(ref, big.NewRat(x%d+1, d))
			case 2:
				v = v.AddRat(-(x%d + 1), d)
				ref.Sub(ref, big.NewRat(x%d+1, d))
			case 3:
				v = v.AddScaled(fastOf(x%d, d), x%(1<<40))
				prod := new(big.Rat).Mul(big.NewRat(x%d, d), new(big.Rat).SetInt64(x%(1<<40)))
				ref.Add(ref, prod)
			case 4:
				got, ok := v.CeilInt64()
				want, wok := ceilRatInt64(ref)
				if ok != wok || got != want {
					t.Fatalf("op %d: CeilInt64 = (%d,%v), want (%d,%v) (v=%s)", i, got, ok, want, wok, ref)
				}
			case 5:
				if got, want := v.CmpInt(x%7), ref.Cmp(new(big.Rat).SetInt64(x%7)); got != want {
					t.Fatalf("op %d: CmpInt(%d) = %d, want %d (v=%s)", i, x%7, got, want, ref)
				}
			}
			if got := v.rat(); got.Cmp(ref) != 0 {
				t.Fatalf("op %d (%d): fast=%s ref=%s", i, op, got, ref)
			}
		}
	})
}
