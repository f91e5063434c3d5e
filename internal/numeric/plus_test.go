package numeric

import (
	"fmt"
	"math"
	"math/big"
	"testing"
)

// FuzzUtilSumPlus checks Plus against Add. The program draws terms as
// FuzzUtilSumCmp does, plus terms of num up to MaxInt64 over 1 that
// saturate the integer part within three terms; Add chains them in
// order, and Plus combines single-term sums UtilSum{}.Add(num, den) in an
// order and grouping the program also picks: each step takes two partial
// sums by index and replaces them with their Plus. The two results must
// be equal bit for bit: the fraction, the saturated or exact integer
// part, and the truncation count.
func FuzzUtilSumPlus(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 0, 2}, int64(6), int64(3))
	f.Add([]byte{3, 7, 11, 2, 6, 19}, []byte{5, 5, 5, 5}, int64(1<<40), int64(999999937))
	f.Add([]byte{9, 9, 9, 9, 1}, []byte{0, 3, 1, 2}, int64(2305843009213693951), int64(4611686018427387847))
	f.Add([]byte{8, 8, 8, 8}, []byte{7, 2, 9}, int64(1), int64(math.MaxInt64))
	f.Fuzz(func(t *testing.T, prog, order []byte, d1, d2 int64) {
		if d1 <= 0 || d2 <= 0 || len(prog) > 64 {
			return
		}
		dens := []int64{d1, d2}
		var chained UtilSum
		parts := make([]UtilSum, 0, len(prog))
		for i, op := range prog {
			x := int64(i)*104729 + int64(op)
			d := dens[int(op/16)%2]
			var num, den int64
			switch op % 4 {
			case 0:
				num, den = x%d+1, d
			case 1:
				num, den = x%d, d
			case 2:
				num, den = x%1000, 1
			default:
				num, den = math.MaxInt64-x, 1+int64(op/4)%2
			}
			chained = chained.Add(num, den)
			parts = append(parts, UtilSum{}.Add(num, den))
		}
		if len(parts) == 0 {
			return
		}
		for k := 0; len(parts) > 1; k++ {
			a, b := 0, 1
			if k < len(order) {
				a = int(order[k]) % len(parts)
				b = (a + 1 + int(order[k]>>4)) % len(parts)
			}
			if a == b {
				b = (a + 1) % len(parts)
			}
			sum := parts[a].Plus(parts[b])
			if k%2 == 1 {
				sum = parts[b].Plus(parts[a])
			}
			parts[min(a, b)] = sum
			parts = append(parts[:max(a, b)], parts[max(a, b)+1:]...)
		}
		if parts[0] != chained {
			t.Fatalf("Plus over %v = %+v, Add chained %+v", prog, parts[0], chained)
		}
	})
}

// TestPlusMatchesAdd adds every term to a running sum with Add and with
// Plus of its single-term sum, across a carry out of the fraction, a
// truncated term, and the saturation of the integer part.
func TestPlusMatchesAdd(t *testing.T) {
	terms := [][2]int64{{1, 3}, {2, 3}, {1, 7}, {math.MaxInt64, 1}, {5, 6}, {math.MaxInt64, 2}, {math.MaxInt64, 1}, {1, 3}}
	var added, plussed UtilSum
	for i, tm := range terms {
		added = added.Add(tm[0], tm[1])
		plussed = plussed.Plus(UtilSum{}.Add(tm[0], tm[1]))
		if added != plussed {
			t.Fatalf("after term %d (%d/%d): Plus %+v, Add %+v", i, tm[0], tm[1], plussed, added)
		}
	}
	if added.ip != math.MaxUint64 {
		t.Fatalf("integer part %d, want it saturated", added.ip)
	}
}

// TestMulCheckedMatches128BitProduct compares MulChecked with the exact
// product on non-negative operands: each pair from the edge values, and
// factor pairs whose product is MaxInt64 or MaxInt64 + 1 exactly.
func TestMulCheckedMatches128BitProduct(t *testing.T) {
	edges := []int64{0, 1, 2, 3, 1<<31 - 1, 1 << 31, 1<<32 - 1, 1 << 32, 1 << 62, math.MaxInt64 / 2, math.MaxInt64}
	var pairs [][2]int64
	for _, a := range edges {
		for _, b := range edges {
			pairs = append(pairs, [2]int64{a, b})
		}
	}
	// MaxInt64 = 7·7·73·127·337·92737·649657, MaxInt64 + 1 = 2^63.
	for _, f := range []int64{7, 49, 73 * 127, 337 * 92737, 649657} {
		pairs = append(pairs, [2]int64{f, math.MaxInt64 / f}, [2]int64{math.MaxInt64 / f, f})
	}
	for s := 1; s < 63; s += 7 {
		pairs = append(pairs, [2]int64{1 << s, 1 << (63 - s)})
	}
	maxInt := big.NewInt(math.MaxInt64)
	for _, p := range pairs {
		want := new(big.Int).Mul(big.NewInt(p[0]), big.NewInt(p[1]))
		got, ok := MulChecked(p[0], p[1])
		what := fmt.Sprintf("MulChecked(%d, %d)", p[0], p[1])
		if fits := want.Cmp(maxInt) <= 0; ok != fits {
			t.Errorf("%s reports fit %v, product %s", what, ok, want)
		} else if ok && got != want.Int64() {
			t.Errorf("%s = %d, want %s", what, got, want)
		}
	}
}
