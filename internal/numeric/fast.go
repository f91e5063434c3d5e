package numeric

import (
	"math"
	"math/big"
	"math/bits"
)

// Fast is an exact rational with int64 numerator and denominator, using
// 128-bit intermediate products (math/bits.Mul64) to detect overflow and
// transparently promoting to a big.Rat when a value no longer fits; it
// returns to the int64 representation as soon as a result fits again.
//
// It carries the running sums of an admission session — the utilization
// gate and the incremental anchor rebuild — which live across many
// analyses and so outside any per-analysis chunk plan. The analyses
// themselves compute on Chunked registers.
//
// The zero value is the number zero. Values are immutable.
type Fast struct {
	// num/den is the value while br == nil; den > 0, except in the zero
	// value where both are 0 (meaning 0/1).
	num, den int64
	// br, when non-nil, holds the promoted value; num/den are ignored.
	br *big.Rat
}

// frac returns the value as num/den with den > 0 (normalizing the zero
// value). Only valid while not promoted.
func (s Fast) frac() (num, den int64) {
	if s.den == 0 {
		return 0, 1
	}
	return s.num, s.den
}

// rat renders the value as a big.Rat without copying a promoted one; the
// caller must not mutate the result.
func (s Fast) rat() *big.Rat {
	if s.br != nil {
		return s.br
	}
	n, d := s.frac()
	return big.NewRat(n, d)
}

// demoted wraps a big.Rat result, returning to the int64 representation
// when the normalized value fits again.
func demoted(r *big.Rat) Fast {
	if r.Num().IsInt64() && r.Denom().IsInt64() {
		return Fast{num: r.Num().Int64(), den: r.Denom().Int64()}
	}
	return Fast{br: r}
}

// reduceFast returns num/den in lowest terms; den must be positive.
func reduceFast(num, den int64) Fast {
	if num == 0 {
		return Fast{num: 0, den: 1}
	}
	if g := GCD(num, den); g > 1 {
		num, den = num/g, den/g
	}
	return Fast{num: num, den: den}
}

// mulInt64 returns a*b and whether the product fits in int64, detected
// through the 128-bit product of math/bits.Mul64. Magnitude MinInt64 is
// conservatively treated as overflow.
func mulInt64(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a == math.MinInt64 || b == math.MinInt64 {
		return 0, false
	}
	neg := (a < 0) != (b < 0)
	ua, ub := uint64(absInt64(a)), uint64(absInt64(b))
	hi, lo := bits.Mul64(ua, ub)
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	if neg {
		return -int64(lo), true
	}
	return int64(lo), true
}

// addInt64 returns a+b and whether the sum fits in int64.
func addInt64(a, b int64) (int64, bool) {
	s := a + b
	if (a > 0 && b > 0 && s < 0) || (a < 0 && b < 0 && s >= 0) {
		return 0, false
	}
	return s, true
}

func absInt64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// cmp128 compares a*b with c*d exactly through 128-bit products.
func cmp128(a, b, c, d int64) int {
	sl := sign64(a) * sign64(b)
	sr := sign64(c) * sign64(d)
	if sl != sr {
		if sl < sr {
			return -1
		}
		return 1
	}
	if sl == 0 {
		return 0
	}
	lhi, llo := bits.Mul64(uint64(absInt64(a)), uint64(absInt64(b)))
	rhi, rlo := bits.Mul64(uint64(absInt64(c)), uint64(absInt64(d)))
	cmp := 0
	switch {
	case lhi != rhi:
		if lhi < rhi {
			cmp = -1
		} else {
			cmp = 1
		}
	case llo != rlo:
		if llo < rlo {
			cmp = -1
		} else {
			cmp = 1
		}
	}
	return cmp * sl
}

func sign64(v int64) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	default:
		return 0
	}
}

// addFrac returns s + n/d for d > 0, promoting on overflow.
func (s Fast) addFrac(n, d int64) Fast {
	if s.br != nil {
		return demoted(new(big.Rat).Add(s.br, big.NewRat(n, d)))
	}
	a, b := s.frac()
	g := GCD(b, d)
	db, bg := d/g, b/g
	if den, ok := mulInt64(b, db); ok {
		if t1, ok := mulInt64(a, db); ok {
			if t2, ok := mulInt64(n, bg); ok {
				if num, ok := addInt64(t1, t2); ok {
					return reduceFast(num, den)
				}
			}
		}
	}
	// An intermediate overflowed; redo in big (the normalized result may
	// still fit, in which case demoted returns to the fast path).
	r := new(big.Rat).Add(big.NewRat(a, b), big.NewRat(n, d))
	return demoted(r)
}

// AddInt returns s + v.
func (s Fast) AddInt(v int64) Fast { return s.addFrac(v, 1) }

// AddRat returns s + num/den. den must be positive.
func (s Fast) AddRat(num, den int64) Fast { return s.addFrac(num, den) }

// AddScaled returns s + u*dt.
func (s Fast) AddScaled(u Fast, dt int64) Fast {
	if u.br != nil {
		prod := new(big.Rat).Mul(u.br, big.NewRat(dt, 1))
		return demoted(prod.Add(prod, s.rat()))
	}
	n, d := u.frac()
	if c, ok := mulInt64(n, dt); ok {
		return s.addFrac(c, d)
	}
	prod := new(big.Rat).Mul(big.NewRat(n, d), big.NewRat(dt, 1))
	return demoted(prod.Add(prod, s.rat()))
}

// CmpInt compares s with the integer v exactly.
func (s Fast) CmpInt(v int64) int {
	if s.br != nil {
		return s.br.Cmp(big.NewRat(v, 1))
	}
	n, d := s.frac()
	return cmp128(n, 1, v, d)
}

// Float returns the value as float64 (possibly rounded).
func (s Fast) Float() float64 {
	if s.br != nil {
		f, _ := s.br.Float64()
		return f
	}
	n, d := s.frac()
	return float64(n) / float64(d)
}

// CeilInt64 returns ceil(s) for s >= 0, and whether the result fits in
// int64 — the rounding step of the incremental admission state, which
// turns exact rational demand values into conservative integer slack
// floors.
func (s Fast) CeilInt64() (int64, bool) {
	if s.br != nil {
		return ceilRatInt64(s.br)
	}
	n, d := s.frac()
	if n < 0 {
		return 0, false
	}
	q := n / d
	if n%d != 0 {
		// d >= 2 here, so q <= n/2 and q+1 cannot overflow.
		q++
	}
	return q, true
}

// ceilRatInt64 returns ceil(r) for r >= 0 and whether it fits in int64;
// a negative r reports false.
func ceilRatInt64(r *big.Rat) (int64, bool) {
	if r.Sign() < 0 {
		return 0, false
	}
	num := new(big.Int).Set(r.Num())
	den := r.Denom()
	num.Add(num, new(big.Int).Sub(den, big.NewInt(1)))
	num.Div(num, den)
	if !num.IsInt64() {
		return 0, false
	}
	return num.Int64(), true
}
