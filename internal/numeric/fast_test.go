package numeric

import (
	"fmt"
	"math"
	"math/big"
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
