package numeric

import (
	"math"
	"math/big"
	"math/bits"
)

// MaxInt64 re-exports math.MaxInt64 so callers of the demand package do not
// need to import math for the "no further deadline" sentinel.
const MaxInt64 = math.MaxInt64

// GCD returns the greatest common divisor of a and b. GCD(0,0) is 0.
// Negative inputs are treated by absolute value.
func GCD(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of a and b and reports whether the
// computation stayed within int64. LCM of zero with anything is 0.
func LCM(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	g := GCD(a, b)
	return MulChecked(a/g, b)
}

// MulChecked returns a*b and reports whether the product fits in int64.
// Both operands must be non-negative. The product is formed in 128 bits
// (math/bits.Mul64), so the check costs a multiplication, not a
// division: the certificate, the demand sources and Devi call it at
// every test point.
func MulChecked(a, b int64) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	if hi != 0 || lo > math.MaxInt64 {
		return 0, false
	}
	return int64(lo), true
}

// AddChecked returns a+b and reports whether the sum fits in int64.
// Both operands must be non-negative.
func AddChecked(a, b int64) (int64, bool) {
	s := a + b
	if s < a {
		return 0, false
	}
	return s, true
}

// SubChecked returns a-b and reports whether the difference fits in
// int64. Unlike AddChecked it is fully signed: either operand may be
// negative (the incremental admission state subtracts demand from slack
// floors that legitimately go negative on tight sessions).
func SubChecked(a, b int64) (int64, bool) {
	d := a - b
	if (b > 0 && d > a) || (b < 0 && d < a) {
		return 0, false
	}
	return d, true
}

// CeilDiv returns ceil(a/b) for non-negative a and positive b.
func CeilDiv(a, b int64) int64 {
	return (a + b - 1) / b
}

// FloorDiv returns floor(a/b) handling negative a (b must be positive).
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
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

// ceilDivBig returns ceil(n/d) for n >= 0 and d > 0 and whether it fits
// in int64; a negative n reports false.
func ceilDivBig(n, d *big.Int) (int64, bool) {
	if n.Sign() < 0 {
		return 0, false
	}
	q, m := new(big.Int).QuoRem(n, d, new(big.Int))
	if m.Sign() != 0 {
		q.Add(q, big.NewInt(1))
	}
	if !q.IsInt64() {
		return 0, false
	}
	return q.Int64(), true
}
