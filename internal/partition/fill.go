package partition

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"

	"repro/internal/model"
)

// fill returns a bin's fill Σ C/T over its scaled tasks ts, as the
// float64 nearest it and in big.Rat's RatString form ("0", "1", "3/4").
// It sums a uint64 fraction in lowest terms and moves the sum to math/big
// only when a term of that fraction overflows.
func fill(ts model.TaskSet) (float64, string) {
	p, q := uint64(0), uint64(1)
	for i, t := range ts {
		np, nq, ok := addFrac(p, q, uint64(t.WCET), uint64(t.Period))
		if !ok {
			return fillBig(p, q, ts[i:])
		}
		p, q = np, nq
	}
	var buf [41]byte
	s := strconv.AppendUint(buf[:0], p, 10)
	if q != 1 {
		s = append(s, '/')
		s = strconv.AppendUint(s, q, 10)
	}
	return fracFloat(p, q), string(s)
}

// fillBig is fill of the tasks ts added to p/q, on math/big.
func fillBig(p, q uint64, ts model.TaskSet) (float64, string) {
	var sum, term big.Rat
	sum.SetFrac(new(big.Int).SetUint64(p), new(big.Int).SetUint64(q))
	for _, t := range ts {
		sum.Add(&sum, term.SetFrac64(t.WCET, t.Period))
	}
	f, _ := sum.Float64()
	return f, sum.RatString()
}

// addFrac returns p/q + c/d in lowest terms for q, d > 0. ok is false
// when the sum over the least common denominator does not fit a uint64.
func addFrac(p, q, c, d uint64) (uint64, uint64, bool) {
	g := gcd(q, d)
	hd, den := bits.Mul64(q/g, d)
	ha, a := bits.Mul64(p, d/g)
	hb, b := bits.Mul64(c, q/g)
	num, carry := bits.Add64(a, b, 0)
	if hd|ha|hb|carry != 0 {
		return 0, 0, false
	}
	g = gcd(num, den)
	return num / g, den / g, true
}

// gcd is the binary greatest common divisor; gcd(0, v) is v.
func gcd(u, v uint64) uint64 {
	if u == 0 || v == 0 {
		return u | v
	}
	shift := bits.TrailingZeros64(u | v)
	u >>= bits.TrailingZeros64(u)
	for v != 0 {
		v >>= bits.TrailingZeros64(v)
		if u > v {
			u, v = v, u
		}
		v -= u
	}
	return u << shift
}

// fracFloat returns the float64 nearest p/q for q > 0, ties to even, as
// big.Rat.Float64 does.
func fracFloat(p, q uint64) float64 {
	if p == 0 {
		return 0
	}
	// Normalize both to a set top bit, n = p·2^sp and d = q·2^sq, and
	// divide n·2^64 (n·2^63 when n >= d) by d: a quotient m in
	// [2^63, 2^64) with p/q = (m + r/d)·2^exp.
	sp, sq := bits.LeadingZeros64(p), bits.LeadingZeros64(q)
	n, d := p<<sp, q<<sq
	hi, lo, exp := n, uint64(0), sq-sp-64
	if n >= d {
		hi, lo, exp = n>>1, n<<63, exp+1
	}
	m, r := bits.Div64(hi, lo, d)
	// Round m's 64 bits to float64's 53: bit 10 is the round bit, the
	// bits below it and the remainder are sticky.
	mant := m >> 11
	if m&(1<<10) != 0 && (m&(1<<10-1) != 0 || r != 0 || mant&1 != 0) {
		mant++ // may reach 2^53, still exact as a float64
	}
	return math.Ldexp(float64(mant), exp+11)
}
