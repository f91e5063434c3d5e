package partition

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"
	"strconv"

	"repro/internal/model"
)

// fraction is a bin's exact fill Σ ceil(C/speed)/T over its scaled
// tasks: the one sum behind both the reported fill and the placement
// decisions the brackets cannot make. It is p/q in lowest terms while
// that fits a uint64, and r on math/big (big set) once a partial sum
// overflows it.
type fraction struct {
	p, q uint64
	big  bool
	r    big.Rat
}

// sum sets f to Σ C/T over the scaled tasks ts.
func (f *fraction) sum(ts model.TaskSet) {
	f.p, f.q, f.big = 0, 1, false
	var term big.Rat
	for _, t := range ts {
		if !f.big {
			if p, q, ok := addFrac(f.p, f.q, uint64(t.WCET), uint64(t.Period)); ok {
				f.p, f.q = p, q
				continue
			}
			f.r.SetFrac(new(big.Int).SetUint64(f.p), new(big.Int).SetUint64(f.q))
			f.big = true
		}
		f.r.Add(&f.r, term.SetFrac64(t.WCET, t.Period))
	}
}

// report returns f as the float64 nearest it and in big.Rat's RatString
// form ("0", "1", "3/4").
func (f *fraction) report() (float64, string) {
	if f.big {
		v, _ := f.r.Float64()
		return v, f.r.RatString()
	}
	var buf [41]byte
	s := strconv.AppendUint(buf[:0], f.p, 10)
	if f.q != 1 {
		s = append(s, '/')
		s = strconv.AppendUint(s, f.q, 10)
	}
	return fracFloat(f.p, f.q), string(s)
}

// plus returns f + c/d in lowest terms for c >= 0, d > 0; ok is false
// when f is on math/big or the sum does not fit a uint64.
func (f *fraction) plus(c, d int64) (uint64, uint64, bool) {
	if f.big || c == 0 {
		return f.p, f.q, !f.big
	}
	return addFrac(f.p, f.q, uint64(c), uint64(d))
}

// rat returns f + c/d on math/big.
func (f *fraction) rat(c, d int64) *big.Rat {
	r := new(big.Rat)
	if f.big {
		r.Set(&f.r)
	} else {
		r.SetFrac(new(big.Int).SetUint64(f.p), new(big.Int).SetUint64(f.q))
	}
	return r.Add(r, big.NewRat(c, d))
}

// room returns the remaining absolute capacity s·(1−f) on math/big:
// worst-fit's key across speeds, where the float64 estimates leave few
// comparisons undecided.
func (f *fraction) room(s int64) *big.Rat {
	r := f.rat(0, 1)
	r.Sub(big.NewRat(1, 1), r)
	return r.Mul(r, big.NewRat(s, 1))
}

// cmpFills compares x + cx/d with y + cy/d exactly: by the 128-bit cross
// products of the two uint64 fractions, on math/big when either sum does
// not fit a uint64.
func cmpFills(x *fraction, cx int64, y *fraction, cy, d int64) int {
	if xp, xq, ok := x.plus(cx, d); ok {
		if yp, yq, ok := y.plus(cy, d); ok {
			return cmpFrac(xp, xq, yp, yq)
		}
	}
	return x.rat(cx, d).Cmp(y.rat(cy, d))
}

// cmpFrac compares a/b with c/d for b, d > 0 as the 128-bit cross
// products a·d and c·b, which cannot wrap.
func cmpFrac(a, b, c, d uint64) int {
	hi1, lo1 := bits.Mul64(a, d)
	hi2, lo2 := bits.Mul64(c, b)
	if hi1 != hi2 {
		return cmp.Compare(hi1, hi2)
	}
	return cmp.Compare(lo1, lo2)
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
