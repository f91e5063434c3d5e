package numeric

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"math/rand"
	"testing"
)

// The tests below check the session sums, UtilSum, against big.Rat.

var ratOne = big.NewRat(1, 1)

// loRat returns the sum's fixed-point lower bound lo exactly.
func loRat(u UtilSum) *big.Rat {
	n := new(big.Int).SetUint64(u.ip)
	n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(u.hi))
	n.Lsh(n, 64).Or(n, new(big.Int).SetUint64(u.lo))
	return new(big.Rat).SetFrac(n, new(big.Int).Lsh(big.NewInt(1), 128))
}

// checkSum asserts the UtilSum contract against the exact sum ref: the
// bracket lo <= ref < lo + inexact·2^-128 (ref == lo when no term was
// truncated) holds, a decided CmpOne equals ref's comparison with 1, and
// Float is ref rounded to the nearest float64.
func checkSum(t *testing.T, u UtilSum, ref *big.Rat, what string) {
	t.Helper()
	lo := loRat(u)
	width := new(big.Rat).SetFrac(new(big.Int).SetUint64(u.inexact), new(big.Int).Lsh(big.NewInt(1), 128))
	hi := new(big.Rat).Add(lo, width)
	switch {
	case u.inexact == 0 && lo.Cmp(ref) != 0:
		t.Fatalf("%s: exact sum %s, lower bound %s", what, ref.RatString(), lo.RatString())
	case u.inexact > 0 && (lo.Cmp(ref) >= 0 || hi.Cmp(ref) <= 0):
		t.Fatalf("%s: sum %s outside the open bracket (%s, %s)", what, ref.RatString(), lo.RatString(), hi.RatString())
	}
	if cmp, ok := u.CmpOne(); ok && cmp != ref.Cmp(ratOne) {
		t.Fatalf("%s: CmpOne = %d, exact comparison %d (sum %s)", what, cmp, ref.Cmp(ratOne), ref.RatString())
	}
	if got, want := u.Float(), floatOf(ref); got != want {
		t.Fatalf("%s: Float = %v, big.Rat %v (sum %s)", what, got, want, ref.RatString())
	}
}

func floatOf(r *big.Rat) float64 {
	f, _ := r.Float64()
	return f
}

// TestFastMatchesRat drives random sums with small and near-MaxInt64
// denominators through UtilSum and a big.Rat reference, checking the
// bracket, CmpOne and Float after every term.
func TestFastMatchesRat(t *testing.T) {
	for _, tc := range []struct {
		name string
		huge bool
	}{
		{"small", false},
		{"overflowing", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for seq := range 200 {
				var u UtilSum
				ref := new(big.Rat)
				for step := range 30 {
					den := rng.Int63n(1000) + 1
					if tc.huge {
						den = math.MaxInt64 - rng.Int63n(1<<20)
						if rng.Intn(2) == 0 {
							den = math.MaxInt64/3 - rng.Int63n(1<<20)
						}
					}
					// Mostly proper fractions, sometimes an integer part
					// too, within int64.
					num := rng.Int63n(den)
					if k := math.MaxInt64/den - 1; k > 0 && rng.Intn(8) == 0 {
						num += den * (1 + rng.Int63n(min(k, 1000)))
					}
					u = u.Add(num, den)
					ref.Add(ref, big.NewRat(num, den))
					checkSum(t, u, ref, fmt.Sprintf("seq %d step %d", seq, step))
				}
			}
		})
	}
}

// nearOne returns three periods, pairwise-coprime primes just above 2^45,
// and numerators from modular inverses whose fractions sum to exactly
// 1 + sign/(p·q·r): within 2^-135 of 1, far inside 2^-128.
func nearOne(sign int64) (nums, dens [3]int64) {
	primes := make([]int64, 0, 8)
	for v := int64(1<<45) + 1; ; v += 2 {
		if !big.NewInt(v).ProbablyPrime(20) {
			continue
		}
		primes = append(primes, v)
		if len(primes) < 3 {
			continue
		}
		dens = [3]int64{primes[0], primes[1], v}
		sum := new(big.Rat)
		for i := range dens {
			others := big.NewInt(1)
			for j := range dens {
				if j != i {
					others.Mul(others, big.NewInt(dens[j]))
				}
			}
			d := big.NewInt(dens[i])
			inv := new(big.Int).ModInverse(others.Mod(others, d), d)
			if sign < 0 {
				inv.Sub(d, inv)
			}
			nums[i] = inv.Int64()
			sum.Add(sum, big.NewRat(nums[i], dens[i]))
		}
		// The residues fix the sum to k ± 1/(pqr); keep the triple
		// whose sum lands next to 1 rather than 2.
		if sum.Cmp(big.NewRat(3, 2)) < 0 {
			return nums, dens
		}
	}
}

// TestFastPromotionAndDemotion pins the undecided band of CmpOne: sums
// within inexact·2^-128 of 1 that the bound cannot place, next to the
// neighbours it does decide.
func TestFastPromotionAndDemotion(t *testing.T) {
	repeat := func(num, den int64, n int) (UtilSum, *big.Rat) {
		var u UtilSum
		ref := new(big.Rat)
		for range n {
			u = u.Add(num, den)
			ref.Add(ref, big.NewRat(num, den))
		}
		return u, ref
	}
	// Exactly 1 with truncated terms: the bracket straddles 1.
	for _, den := range []int64{3, 7} {
		u, ref := repeat(1, den, int(den))
		checkSum(t, u, ref, "1/den x den")
		if _, ok := u.CmpOne(); ok {
			t.Errorf("1/%d x %d: CmpOne decided, want undecided", den, den)
		}
		// One term short, the gap dwarfs the truncation.
		if u, _ := repeat(1, den, int(den)-1); !decides(u, -1) {
			t.Errorf("(%d-1)/%d: CmpOne = %v, want (-1, true)", den, den, fmtCmp(u))
		}
	}
	// Exactly 1 in binary: no truncation, decided equal.
	if u, _ := repeat(1, 4, 4); !decides(u, 0) {
		t.Errorf("1/4 x 4: CmpOne = %v, want (0, true)", fmtCmp(u))
	}
	// Crafted sums 1 ± 1/(pqr), with pqr near 2^135.
	for _, sign := range []int64{1, -1} {
		nums, dens := nearOne(sign)
		var u UtilSum
		ref := new(big.Rat)
		for i := range nums {
			u = u.Add(nums[i], dens[i])
			ref.Add(ref, big.NewRat(nums[i], dens[i]))
		}
		checkSum(t, u, ref, "crafted")
		if want := ref.Cmp(ratOne); want != int(sign) {
			t.Fatalf("crafted sum %s is not on the %+d side of 1", ref.RatString(), sign)
		}
		if _, ok := u.CmpOne(); ok {
			t.Errorf("1%+d/(pqr): CmpOne decided, want undecided", sign)
		}
	}
	// A saturated integer part still decides.
	u, _ := repeat(math.MaxInt64, 1, 3)
	if u.ip != math.MaxUint64 || !decides(u, 1) {
		t.Errorf("saturated sum: ip %d, CmpOne = %v, want saturated and (1, true)", u.ip, fmtCmp(u))
	}
}

// TestCmpOneTable pins CmpOne on hand-built brackets at the edges of its
// cases, each next to CmpMulAdd's answer where the integer part is not
// saturated: exactly 1, just above it, just below it with and without
// truncated terms, a truncation that reaches 1 exactly or passes it, and
// a saturated integer part.
func TestCmpOneTable(t *testing.T) {
	const max = math.MaxUint64
	for _, c := range []struct {
		name string
		u    UtilSum
		cmp  int
		ok   bool
	}{
		{"zero", UtilSum{}, -1, true},
		{"exactly 1", UtilSum{ip: 1}, 0, true},
		{"1 plus one unit", UtilSum{ip: 1, lo: 1}, 1, true},
		{"1 plus a truncated term", UtilSum{ip: 1, inexact: 1}, 1, true},
		{"2", UtilSum{ip: 2}, 1, true},
		{"one unit below 1, exact", UtilSum{hi: max, lo: max}, -1, true},
		{"below 1, truncation short of 1", UtilSum{hi: max, lo: max - 1, inexact: 1}, -1, true},
		{"below 1, truncation reaching 1", UtilSum{hi: max, lo: max, inexact: 1}, -1, true},
		{"below 1, truncation past 1", UtilSum{hi: max, lo: max, inexact: 2}, 0, false},
		{"below 1, truncation reaching 1 by a carry", UtilSum{hi: max, lo: 1, inexact: max}, -1, true},
		{"below 1, truncation past 1 by a carry", UtilSum{hi: max, lo: 2, inexact: max}, 0, false},
		{"half, many truncated terms", UtilSum{hi: 1 << 63, inexact: max}, -1, true},
		{"saturated", UtilSum{ip: max}, 1, true},
	} {
		if cmp, ok := c.u.CmpOne(); cmp != c.cmp || ok != c.ok {
			t.Errorf("%s: CmpOne = (%d, %v), want (%d, %v)", c.name, cmp, ok, c.cmp, c.ok)
		}
		if c.u.ip == max {
			continue
		}
		if cmp, ok := c.u.CmpMulAdd(1, UtilSum{}, 0); cmp != c.cmp || ok != c.ok {
			t.Errorf("%s: CmpMulAdd(1, 0, 0) = (%d, %v), want (%d, %v)", c.name, cmp, ok, c.cmp, c.ok)
		}
	}
}

func decides(u UtilSum, want int) bool {
	cmp, ok := u.CmpOne()
	return ok && cmp == want
}

func fmtCmp(u UtilSum) string {
	cmp, ok := u.CmpOne()
	return fmt.Sprintf("(%d, %v)", cmp, ok)
}

// TestFastZeroValue checks that the zero value is the number zero.
func TestFastZeroValue(t *testing.T) {
	var u UtilSum
	if !decides(u, -1) || u.Float() != 0 {
		t.Fatalf("zero value is not the number zero: %+v", u)
	}
	if u := u.Add(7, 1); !decides(u, 1) || u.Float() != 7 {
		t.Fatalf("0+7: CmpOne %v, Float %v", fmtCmp(u), u.Float())
	}
}

// TestFastCmpAgainstBig cross-checks CmpOne on 2000 random sums that
// miss 1 by at most one unit of their last term, over denominators of
// every width from 2 bits to 62.
func TestFastCmpAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	decided := 0
	for range 2000 {
		k := 1 + rng.Intn(4)
		dens := make([]int64, k)
		for i := range dens {
			dens[i] = 2 + rng.Int63n(int64(1)<<(2+rng.Intn(61)))
		}
		// Split 1 into k shares, round each numerator down, then put the
		// rounding loss back on the last term, give or take a unit.
		var u UtilSum
		ref := new(big.Rat)
		rest := big.NewRat(1, 1)
		for i, d := range dens {
			var num int64
			if i < k-1 {
				num = rng.Int63n(d/int64(k) + 1)
			} else {
				want := new(big.Rat).Mul(rest, big.NewRat(d, 1))
				num = new(big.Int).Quo(want.Num(), want.Denom()).Int64() + rng.Int63n(3) - 1
				num = max(num, 0)
			}
			u = u.Add(num, d)
			ref.Add(ref, big.NewRat(num, d))
			rest.Sub(rest, big.NewRat(num, d))
		}
		checkSum(t, u, ref, "near-1 sum")
		if _, ok := u.CmpOne(); ok {
			decided++
		}
	}
	if decided < 1900 {
		t.Fatalf("only %d of 2000 near-1 sums decided; the bound is looser than 2^-128 per term", decided)
	}
}

// bracketsDecide reports whether the brackets of u and o order the
// sums: a sum without truncated terms is the point lo, one with them the
// open interval (lo, lo + inexact·2^-128), and the brackets decide when
// they are disjoint or the same point. A saturated integer part bounds
// nothing from above and decides nothing.
func bracketsDecide(u, o UtilSum) bool {
	if u.ip == math.MaxUint64 || o.ip == math.MaxUint64 {
		return false
	}
	ul, ol := loRat(u), loRat(o)
	uh, oh := bracketHi(u), bracketHi(o)
	switch {
	case u.inexact == 0 && o.inexact == 0:
		return true
	case u.inexact == 0:
		return ul.Cmp(ol) <= 0 || ul.Cmp(oh) >= 0
	case o.inexact == 0:
		return ol.Cmp(ul) <= 0 || ol.Cmp(uh) >= 0
	}
	return ul.Cmp(oh) >= 0 || ol.Cmp(uh) >= 0
}

// bracketHi returns lo + inexact·2^-128, the bracket's upper end.
func bracketHi(u UtilSum) *big.Rat {
	w := new(big.Rat).SetFrac(new(big.Int).SetUint64(u.inexact), new(big.Int).Lsh(big.NewInt(1), 128))
	return w.Add(w, loRat(u))
}

// checkCmp asserts the UtilSum.Cmp contract for sums whose exact values
// are ur and or: Cmp decides exactly when the brackets do (see
// bracketsDecide), a decided result is the exact order, and the reversed
// comparison is its mirror image.
func checkCmp(t *testing.T, u, o UtilSum, ur, or *big.Rat, what string) {
	t.Helper()
	c, ok := u.Cmp(o)
	rc, rok := o.Cmp(u)
	if ok != rok || c != -rc {
		t.Fatalf("%s: Cmp = (%d, %v), reversed (%d, %v)", what, c, ok, rc, rok)
	}
	if want := bracketsDecide(u, o); ok != want {
		t.Fatalf("%s: Cmp decided %v, the brackets decide %v (%+v, %+v)", what, ok, want, u, o)
	}
	if want := ur.Cmp(or); ok && c != want {
		t.Fatalf("%s: Cmp = %d, exact comparison %d (%s against %s)", what, c, want, ur.RatString(), or.RatString())
	}
	for _, x := range []UtilSum{u, o} {
		if x.ip == math.MaxUint64 {
			continue // CmpMulAdd leaves a saturated sum undecided, CmpOne does not
		}
		c1, ok1 := x.CmpOne()
		c2, ok2 := x.CmpMulAdd(1, UtilSum{}, 0)
		if c1 != c2 || ok1 != ok2 {
			t.Fatalf("%s: CmpOne = (%d, %v), CmpMulAdd(1, 0, 0) = (%d, %v) (%+v)", what, c1, ok1, c2, ok2, x)
		}
	}
}

// TestUtilSumCmpMatchesBigRat compares random sums pairwise against
// big.Rat, with most pairs equal or nearly equal: the same terms on both
// sides, and the same fraction split into two terms on one side, which
// moves its truncation. Hand-built pairs follow: equal sums whose lower
// bounds sit one unit of 2^-128 apart, brackets one unit apart across
// word boundaries, sums within 2^-135 of 1, and a saturated integer part.
func TestUtilSumCmpMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	decided := 0
	for seq := range 400 {
		var u, o UtilSum
		ur, or := new(big.Rat), new(big.Rat)
		for step := range 12 {
			den := 2 + rng.Int63n(int64(1)<<(1+rng.Intn(61)))
			num := rng.Int63n(den)
			x := big.NewRat(num, den)
			switch rng.Intn(4) {
			case 0:
				u, ur = u.Add(num, den), ur.Add(ur, x)
			case 1:
				o, or = o.Add(num, den), or.Add(or, x)
			case 2:
				u, ur = u.Add(num, den), ur.Add(ur, x)
				o, or = o.Add(num, den), or.Add(or, x)
			default:
				u, ur = u.Add(num, den), ur.Add(ur, x)
				o, or = o.Add(num/2, den).Add(num-num/2, den), or.Add(or, x)
			}
			checkCmp(t, u, o, ur, or, fmt.Sprintf("seq %d step %d", seq, step))
			if _, ok := u.Cmp(o); ok {
				decided++
			}
		}
	}
	if decided == 0 {
		t.Fatal("no random pair decided")
	}

	sum := func(terms ...int64) (UtilSum, *big.Rat) {
		var u UtilSum
		r := new(big.Rat)
		for i := 0; i < len(terms); i += 2 {
			u = u.Add(terms[i], terms[i+1])
			r.Add(r, big.NewRat(terms[i], terms[i+1]))
		}
		return u, r
	}
	// 1/6 + 1/3 truncates to one unit below 1/2.
	a, ar := sum(1, 6, 1, 3)
	b, br := sum(1, 2)
	if loRat(b).Sub(loRat(b), loRat(a)).Cmp(new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Lsh(big.NewInt(1), 128))) != 0 {
		t.Fatalf("1/6+1/3 lower bound %s, want one unit below 1/2", loRat(a).RatString())
	}
	checkCmp(t, a, b, ar, br, "1/6+1/3 against 1/2")
	if _, ok := a.Cmp(b); ok {
		t.Error("1/6+1/3 against 1/2 decided on overlapping brackets")
	}
	for _, pair := range [][2][]int64{
		{{1, 3, 1, 3, 1, 3}, {1, 1}},
		{{1, 3, 1, 6}, {1, 6, 1, 3}},
		{{1, 4, 1, 4}, {1, 2}},
		{{1, 3, 1, 6, 1, 10}, {1, 2, 1, 10}},
		{{2, 7}, {1, 7, 1, 7}},
	} {
		u, ur := sum(pair[0]...)
		o, or := sum(pair[1]...)
		checkCmp(t, u, o, ur, or, fmt.Sprint(pair))
	}
	// Equal lower bounds, and lower bounds one unit apart carried across
	// the fraction's words and into the integer part.
	for _, base := range []UtilSum{{hi: 5, lo: 9}, {lo: math.MaxUint64}, {hi: math.MaxUint64, lo: math.MaxUint64}, {ip: 2, hi: math.MaxUint64, lo: math.MaxUint64}} {
		next := base
		var c uint64
		next.lo, c = bits.Add64(next.lo, 1, 0)
		next.hi, c = bits.Add64(next.hi, 0, c)
		next.ip += c
		for _, in := range [][2]uint64{{0, 0}, {1, 0}, {2, 0}, {0, 3}, {1, 1}, {2, 5}} {
			u, o, same := base, next, base
			u.inexact, o.inexact, same.inexact = in[0], in[1], in[1]
			checkCmp(t, u, o, midRat(u), midRat(o), fmt.Sprintf("one unit above %+v, inexact %v", base, in))
			if _, ok := u.Cmp(o); ok != (in[0] <= 1) {
				t.Errorf("one unit above %+v, inexact %v: decided %v", base, in, ok)
			}
			checkCmp(t, u, same, midRat(u), midRat(same), fmt.Sprintf("equal to %+v, inexact %v", base, in))
			if _, ok := u.Cmp(same); ok != (in[0] == 0 || in[1] == 0) {
				t.Errorf("equal to %+v, inexact %v: decided %v", base, in, ok)
			}
		}
	}
	// Sums within 2^-135 of 1, against 1 and each other.
	var near [2]UtilSum
	var nearR [2]*big.Rat
	for i, sign := range []int64{1, -1} {
		nums, dens := nearOne(sign)
		near[i], nearR[i] = sum(nums[0], dens[0], nums[1], dens[1], nums[2], dens[2])
	}
	one, oneR := sum(1, 1)
	checkCmp(t, near[0], near[1], nearR[0], nearR[1], "1+1/pqr against 1-1/pqr")
	checkCmp(t, near[0], one, nearR[0], oneR, "1+1/pqr against 1")
	checkCmp(t, near[1], one, nearR[1], oneR, "1-1/pqr against 1")
	// A saturated integer part never decides.
	sat, satR := sum(math.MaxInt64, 1, math.MaxInt64, 1, math.MaxInt64, 1)
	if sat.ip != math.MaxUint64 {
		t.Fatalf("sum did not saturate: %+v", sat)
	}
	checkCmp(t, sat, b, satR, br, "saturated against 1/2")
	checkCmp(t, sat, sat, satR, satR, "saturated against itself")
}

// midRat returns a point inside u's bracket: lo, or lo + inexact/2 units.
func midRat(u UtilSum) *big.Rat {
	w := new(big.Rat).SetFrac(new(big.Int).SetUint64(u.inexact), new(big.Int).Lsh(big.NewInt(1), 129))
	return w.Add(w, loRat(u))
}

// FuzzUtilSumCmp builds two sums from one program and checks Cmp after
// every term (see checkCmp). Each step adds a term to one side, the same
// term to both, or the term to one side and its numerator split in two
// to the other, so equal sums with different truncations are common.
// Terms are drawn as in FuzzFastVsBigRat.
func FuzzUtilSumCmp(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, int64(6), int64(3))
	f.Add([]byte{3, 7, 11, 2, 6, 19}, int64(1<<40), int64(999999937))
	f.Add([]byte{2, 2, 2, 2, 2}, int64(2305843009213693951), int64(4611686018427387847))
	f.Fuzz(func(t *testing.T, prog []byte, d1, d2 int64) {
		if d1 <= 0 || d2 <= 0 {
			return
		}
		var u, o UtilSum
		ur, or := new(big.Rat), new(big.Rat)
		dens := []int64{d1, d2}
		for i, op := range prog {
			if i > 64 {
				break
			}
			x := int64(i)*104729 + int64(op)
			d := dens[int(op/16)%2]
			var num, den int64
			switch op % 3 {
			case 0:
				num, den = x%d+1, d
			case 1:
				num, den = x%d, d
			default:
				num, den = x%1000, 1
			}
			r := big.NewRat(num, den)
			switch (op / 3) % 4 {
			case 0:
				u, ur = u.Add(num, den), ur.Add(ur, r)
			case 1:
				o, or = o.Add(num, den), or.Add(or, r)
			case 2:
				u, ur = u.Add(num, den), ur.Add(ur, r)
				o, or = o.Add(num, den), or.Add(or, r)
			default:
				u, ur = u.Add(num, den), ur.Add(ur, r)
				o, or = o.Add(num/2, den).Add(num-num/2, den), or.Add(or, r)
			}
			checkCmp(t, u, o, ur, or, fmt.Sprintf("op %d (%d)", i, op))
		}
	})
}
