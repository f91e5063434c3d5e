package numeric

import (
	"math"
	"math/bits"
)

// UtilSum is a running sum of non-negative fractions num/den — a
// session's total utilization Σ C/T — kept as a 128-bit fixed-point lower
// bound lo = Σ floor(num·2^128/den)/2^128 plus the count of terms that
// floor truncated. Each truncated term loses less than 2^-128, so the
// exact sum S satisfies
//
//	lo <= S < lo + inexact·2^-128,
//
// with S == lo when no term was truncated. The bound settles S against 1
// unless S lies within inexact·2^-128 of 1; CmpOne reports those rare
// sums as undecided and the caller compares exactly.
//
// Every operation is integer addition, so lo and inexact — and with them
// CmpOne and Float — do not depend on the order of the terms. The
// integer part saturates at math.MaxUint64, beyond which CmpOne still
// reports +1. The zero value is zero; values are immutable.
type UtilSum struct {
	ip      uint64 // integer part of lo, saturating
	hi, lo  uint64 // fraction of lo: (hi·2^64 + lo)/2^128
	inexact uint64 // terms whose fraction floor truncated
}

// Add returns u + num/den for num >= 0 and den > 0.
func (u UtilSum) Add(num, den int64) UtilSum {
	return u.add(0, uint64(num), uint64(den))
}

// AddMul returns u + a·b/den for a, b >= 0 and 0 < den with a <= den,
// the product formed in 128 bits: Devi's gap term (T − D)·C/T, whose
// numerator may not fit an int64.
func (u UtilSum) AddMul(a, b, den int64) UtilSum {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	return u.add(hi, lo, uint64(den))
}

// Plus returns u + o, bit-identical to adding o's terms to u one by one
// with Add: the fixed-point fractions add with their carry, the integer
// parts saturate, and the truncation counts add. A caller that adds one
// term to many sums computes it once, as UtilSum{}.Add(num, den).
func (u UtilSum) Plus(o UtilSum) UtilSum {
	var c uint64
	u.lo, c = bits.Add64(u.lo, o.lo, 0)
	u.hi, c = bits.Add64(u.hi, o.hi, c)
	u.ip = satAdd(satAdd(u.ip, o.ip), c)
	u.inexact += o.inexact
	return u
}

// satAdd returns a + b, saturating at math.MaxUint64.
func satAdd(a, b uint64) uint64 {
	if a > math.MaxUint64-b {
		return math.MaxUint64
	}
	return a + b
}

// add adds (hi·2^64 + lo)/d for a numerator below d·2^63, which keeps
// hi below d and the quotient below 2^63: Add's numerator is an int64,
// and AddMul's a <= den and b < 2^63 bound its product.
func (u UtilSum) add(hi, lo, d uint64) UtilSum {
	q, r := bits.Div64(hi, lo, d)
	// floor(r·2^128/den) as two base-2^64 digits; r < den keeps each
	// division's high word below the divisor.
	f1, r1 := bits.Div64(r, 0, d)
	f0, r0 := bits.Div64(r1, 0, d)
	if r0 != 0 {
		u.inexact++
	}
	var c uint64
	u.lo, c = bits.Add64(u.lo, f0, 0)
	u.hi, c = bits.Add64(u.hi, f1, c)
	q += c // q < 2^63, so the carry cannot wrap it
	u.ip = satAdd(u.ip, q)
	return u
}

// CmpOne compares the sum with 1. ok is false when the bound cannot
// decide, lo < 1 < lo + inexact·2^-128: S may lie on either side of 1
// or on it. It answers what CmpMulAdd's comparison of u·1 + 0 + 0 with 1
// answers, without its multiplications, and a saturated integer part,
// which CmpMulAdd leaves undecided, puts S above 1.
func (u UtilSum) CmpOne() (cmp int, ok bool) {
	switch {
	case u.ip > 1:
		return 1, true
	case u.ip == 1:
		// S >= lo >= 1, and S > 1 unless lo is exactly 1 and S == lo.
		if u.hi|u.lo|u.inexact == 0 {
			return 0, true
		}
		return 1, true
	case u.inexact == 0:
		return -1, true // S = lo < 1
	}
	// S < lo + inexact·2^-128, which is at most 1 unless the fraction and
	// the truncation count pass 2^128 units.
	lo, c := bits.Add64(u.lo, u.inexact, 0)
	hi, c := bits.Add64(u.hi, 0, c)
	if c == 0 || hi|lo == 0 {
		return -1, true
	}
	return 0, false
}

// Cmp orders two sums. A sum without truncated terms is exactly lo; one
// with them lies strictly inside (lo, lo + inexact·2^-128). ok is false
// when the two brackets overlap — lower bounds too close for the
// truncation, equal lower bounds that both truncated, or a saturated
// integer part — and the caller compares exactly.
func (u UtilSum) Cmp(o UtilSum) (cmp int, ok bool) {
	if u.ip == math.MaxUint64 || o.ip == math.MaxUint64 {
		return 0, false
	}
	if u.ip == o.ip && u.hi == o.hi && u.lo == o.lo {
		switch {
		case u.inexact == 0 && o.inexact == 0:
			return 0, true
		case u.inexact == 0:
			return -1, true
		case o.inexact == 0:
			return 1, true
		}
		return 0, false
	}
	// Order the lower bounds, a below b, and sign the result for u.
	a, b, sign := u, o, -1
	if u.ip > o.ip || u.ip == o.ip && (u.hi > o.hi || u.hi == o.hi && u.lo > o.lo) {
		a, b, sign = o, u, 1
	}
	// The sums are ordered when the gap b.lo - a.lo, in units of 2^-128,
	// covers a's truncation: a < a.lo + a.inexact <= b.lo <= b.
	lo, borrow := bits.Sub64(b.lo, a.lo, 0)
	hi, borrow := bits.Sub64(b.hi, a.hi, borrow)
	if b.ip-a.ip-borrow > 0 || hi > 0 || lo >= a.inexact {
		return sign, true
	}
	return 0, false
}

// CmpMulAdd compares u·d + g + b with d for d > 0 and b >= 0: Devi's
// prefix condition, with u the prefix's utilization, g its gap sum and b
// the blocking at deadline d. The lower bound L = lo(u)·d + lo(g) + b is
// exact in 64.128 fixed point, and the exact value S satisfies
// L <= S < L + E·2^-128 with E = u.inexact·d + g.inexact, S == L when
// E == 0. ok is false when that bracket holds d and S may lie on either
// side of it or on it, when either integer part saturated, and for
// d <= 0 or b < 0.
func (u UtilSum) CmpMulAdd(d int64, g UtilSum, b int64) (cmp int, ok bool) {
	if d <= 0 || b < 0 || u.ip == math.MaxUint64 || g.ip == math.MaxUint64 {
		return 0, false
	}
	m := uint64(d)
	// L's fraction, fh·2^64 + fl, and integer part ip; an integer part
	// past 2^64 puts L, and with it S, above d.
	ph, ip := bits.Mul64(u.ip, m)
	if ph != 0 {
		return 1, true
	}
	h1, h0 := bits.Mul64(u.hi, m)
	l1, fl := bits.Mul64(u.lo, m)
	fh, c := bits.Add64(h0, l1, 0)
	h1 += c // h1 < m, so the carry cannot wrap it
	fl, c = bits.Add64(fl, g.lo, 0)
	fh, c = bits.Add64(fh, g.hi, c)
	var c1, c2 uint64
	ip, c = bits.Add64(ip, h1, c)
	ip, c1 = bits.Add64(ip, g.ip, 0)
	ip, c2 = bits.Add64(ip, uint64(b), 0)
	if c|c1|c2 != 0 || ip > m {
		return 1, true
	}
	// E in units of 2^-128: below 2^127 + 2^64, so it fits 128 bits.
	eh, el := bits.Mul64(u.inexact, m)
	el, c = bits.Add64(el, g.inexact, 0)
	eh += c
	exact := eh|el == 0
	switch {
	case ip == m && (fh|fl != 0 || !exact):
		return 1, true // S >= L > d, or S > L = d
	case ip == m:
		return 0, true
	case exact || ip < m-1:
		// S = L < d, or S < L + 2^128 units <= ip + 2 <= d.
		return -1, true
	}
	// ip = d - 1: S < L + E·2^-128 <= d while the fraction and E sum to
	// at most 2^128 units.
	sl, c := bits.Add64(fl, el, 0)
	sh, c := bits.Add64(fh, eh, c)
	if c == 0 || sh|sl == 0 {
		return -1, true
	}
	return 0, false
}

// Float returns lo rounded to the nearest float64, a truncated term
// acting as the sticky bit of the rounding: the result is the float64
// nearest the exact sum unless a rounding boundary lies inside the
// bracket.
func (u UtilSum) Float() float64 {
	// m holds the 64 leading bits of lo, rest whether any bit below them
	// is set, and exp the binary exponent of m's lowest bit.
	var m uint64
	var rest bool
	var exp int
	switch {
	case u.ip != 0:
		s := bits.LeadingZeros64(u.ip)
		m = u.ip<<s | u.hi>>(64-s)
		rest = u.hi<<s != 0 || u.lo != 0
		exp = -s
	case u.hi != 0:
		s := bits.LeadingZeros64(u.hi)
		m = u.hi<<s | u.lo>>(64-s)
		rest = u.lo<<s != 0
		exp = -64 - s
	case u.lo != 0:
		s := bits.LeadingZeros64(u.lo)
		m = u.lo << s
		exp = -128 - s
	default:
		return 0
	}
	// Round the 64 bits to float64's 53: bit 10 is the round bit, the
	// bits below it, the bits below m and the truncated terms are sticky.
	mant := m >> 11
	sticky := m&(1<<10-1) != 0 || rest || u.inexact > 0
	if m&(1<<10) != 0 && (sticky || mant&1 != 0) {
		mant++ // may reach 2^53, still exact as a float64
	}
	return math.Ldexp(float64(mant), exp+11)
}
