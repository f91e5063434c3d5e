package numeric

import (
	"math"
	"math/big"
	"testing"
)

// TestCeilInt64 pins the integer ceiling the incremental anchor takes
// of its demand registers: QuoCeilChunked over a divisor holding 1. Each
// row runs on a plan over its denominator (no chunk at all for an
// integer) and on an empty plan, where fractions live in math/big.
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
	var empty Plan
	ceil := func(p *Plan, set func(a *Chunked)) (int64, bool) {
		var a, one, tmp Chunked
		a.Init(p)
		one.Init(p)
		tmp.Init(p)
		set(&a)
		one.SetInt(1)
		return QuoCeilChunked(&a, &one, &tmp)
	}
	for _, c := range cases {
		if c.num < 0 {
			// QuoCeilChunked takes a >= 0; the negative contract is
			// ceilDivBig's, its big.Int path.
			if got, ok := ceilDivBig(big.NewInt(c.num), big.NewInt(c.den)); ok != c.ok {
				t.Errorf("ceilDivBig(%d, %d) = (%d,%v), want (_,%v)", c.num, c.den, got, ok, c.ok)
			}
			continue
		}
		for _, p := range []*Plan{buildPlan(t, []int64{c.den}), &empty} {
			got, ok := ceil(p, func(a *Chunked) { a.AddRat(c.num, c.den) })
			if ok != c.ok || (ok && got != c.want) {
				t.Errorf("ceil(%d/%d) on %d chunks = (%d,%v), want (%d,%v)",
					c.num, c.den, p.Chunks(), got, ok, c.want, c.ok)
			}
		}
	}
	// Zero-chunk plans hold integers only; a tie between probe and value
	// must not round up.
	intPlan := buildPlan(t, []int64{1, 1})
	for _, v := range []int64{1, 2, 12, 3650, 1 << 40} {
		if got, ok := ceil(intPlan, func(a *Chunked) { a.SetInt(v) }); !ok || got != v {
			t.Errorf("ceil(%d) without chunks = (%d,%v), want (%d,true)", v, got, ok, v)
		}
	}
	// Promoted registers: a value beyond int64 must report !ok, one
	// within must round as the chunked path does.
	p := buildPlan(t, []int64{3})
	if _, ok := ceil(p, func(a *Chunked) { a.SetInt(1 << 62); a.MulInt(1 << 8) }); ok {
		t.Error("ceil(2^70) reported ok")
	}
	if got, ok := ceil(&empty, func(a *Chunked) { a.AddInt(1); a.AddRat(1, 1<<62) }); !ok || got != 2 {
		t.Errorf("ceil((2^62+1)/2^62) = (%d,%v), want (2,true)", got, ok)
	}
	if got, ok := ceil(p, func(a *Chunked) { a.AddRat(2, 3); a.AddRat(1, 5) }); !ok || got != 1 {
		t.Errorf("ceil(2/3 + 1/5), promoted on an uncovered denominator = (%d,%v), want (1,true)", got, ok)
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
