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
	d := uint64(den)
	q, r := uint64(num)/d, uint64(num)%d
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
	if u.ip > math.MaxUint64-q {
		u.ip = math.MaxUint64
	} else {
		u.ip += q
	}
	return u
}

// CmpOne compares the sum with 1. ok is false when the bound cannot
// decide, lo < 1 < lo + inexact·2^-128: S may lie on either side of 1
// or on it.
func (u UtilSum) CmpOne() (cmp int, ok bool) {
	frac := u.hi|u.lo != 0
	switch {
	case u.ip > 1 || u.ip == 1 && (frac || u.inexact > 0):
		// S >= lo > 1, or S > lo = 1 because a truncated term adds a
		// positive remainder.
		return 1, true
	case u.ip == 1:
		return 0, true
	case u.inexact == 0:
		return -1, true
	}
	// lo < 1. S < lo + inexact·2^-128 <= 1 when the gap 1 - lo, which is
	// 2^128 - (hi·2^64 + lo) units of 2^-128, covers inexact units. With
	// hi below 2^64-1 the gap exceeds 2^64 units.
	if u.hi != math.MaxUint64 || u.lo <= math.MaxUint64-u.inexact+1 {
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
