package numeric

import (
	"math"
	"math/big"
	"testing"
)

func TestCeilInt64(t *testing.T) {
	cases := []struct {
		num, den int64
		want     int64
		ok       bool
	}{
		{0, 1, 0, true},
		{7, 1, 7, true},
		{7, 2, 4, true},
		{6, 2, 3, true},
		{1, 3, 1, true},
		{math.MaxInt64, 1, math.MaxInt64, true},
		{math.MaxInt64, 2, math.MaxInt64/2 + 1, true},
		{-1, 2, 0, false},
	}
	for _, c := range cases {
		got, ok := fastOf(c.num, c.den).CeilInt64()
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("CeilInt64(%d/%d) = (%d,%v), want (%d,%v)", c.num, c.den, got, ok, c.want, c.ok)
		}
	}
	// Promoted path: a value beyond int64 must report !ok, one within
	// must round identically to the fast path.
	big1 := demoted(new(big.Rat).SetFrac(
		new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(1)))
	if _, ok := big1.CeilInt64(); ok {
		t.Error("CeilInt64(2^70) reported ok")
	}
	big2 := demoted(new(big.Rat).SetFrac(
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(1)),
		new(big.Int).Lsh(big.NewInt(1), 70)))
	if got, ok := big2.CeilInt64(); !ok || got != 2 {
		t.Errorf("CeilInt64((2^70+1)/2^70) = (%d,%v), want (2,true)", got, ok)
	}
}

func TestSubChecked(t *testing.T) {
	cases := []struct {
		a, b, want int64
		ok         bool
	}{
		{5, 3, 2, true},
		{3, 5, -2, true},
		{-5, 3, -8, true},
		{math.MinInt64, 1, 0, false},
		{math.MaxInt64, -1, 0, false},
		{math.MinInt64, math.MinInt64, 0, true},
		{0, math.MinInt64, 0, false},
		{-1, math.MinInt64, math.MaxInt64, true},
	}
	for _, c := range cases {
		got, ok := SubChecked(c.a, c.b)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("SubChecked(%d,%d) = (%d,%v), want (%d,%v)", c.a, c.b, got, ok, c.want, c.ok)
		}
	}
}
