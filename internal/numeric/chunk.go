package numeric

import (
	"math"
	"math/big"
	"math/bits"
)

// MaxChunks bounds the number of chunk denominators a Plan may hold.
// Log-uniform period sets spanning 8 decades fold into ~20 chunks under
// the 2^62 cap, so 32 leaves comfortable headroom while keeping a Chunked
// value small enough to live in a Scratch register bank.
const MaxChunks = 32

// chunkDenCap bounds each chunk denominator. 2^62 leaves one bit of
// headroom below the int64 sign bit so a fractional numerator plus a
// same-chunk carry (< 2*cap) can never wrap.
const chunkDenCap = int64(1) << 62

// Plan is the per-workload denominator schedule of the bounded-denominator
// exact arithmetic: every denominator a computation will meet at ingest is
// folded (greedy first-fit) into one of at most MaxChunks chunk
// denominators, each an LCM capped at 2^62. A Chunked value then carries
// one fractional numerator per chunk and all arithmetic stays in int64
// with 128-bit intermediates — no math/big on the hot path. When the cap
// is genuinely exceeded the build fails and leaves the plan empty:
// registers bound to an empty plan still compute exactly, every fraction
// on math/big.
//
// A Plan serves one analysis at a time; values bound to it must not
// outlive a rebuild.
type Plan struct {
	dens [MaxChunks]int64
	n    int
	// promotions tallies how often values bound to this plan fell off the
	// chunked fast path onto math/big (see Chunked.promote).
	promotions uint64
}

// Build folds the given ingest denominators into chunk denominators and
// reports whether everything fit under the cap. On failure the plan is
// empty. Denominator 1 (integer contributions) needs no
// chunk; non-positive denominators fail the build. Building restarts the
// promotion tally: callers tracking totals across rebuilds fold the old
// count first.
func (p *Plan) Build(dens []int64) bool {
	p.n = 0
	p.promotions = 0
	for _, d := range dens {
		if d <= 0 {
			p.n = 0
			return false
		}
		if d == 1 {
			continue
		}
		placed := false
		for c := 0; c < p.n; c++ {
			if l, ok := LCM(p.dens[c], d); ok && l <= chunkDenCap {
				p.dens[c] = l
				placed = true
				break
			}
		}
		if !placed {
			if p.n == MaxChunks || d > chunkDenCap {
				p.n = 0
				return false
			}
			p.dens[p.n] = d
			p.n++
		}
	}
	return true
}

// Chunks returns the number of chunk denominators in the plan.
func (p *Plan) Chunks() int { return p.n }

// Promotions returns the number of fast-path exits recorded against this
// plan since it was built.
func (p *Plan) Promotions() uint64 { return p.promotions }

// chunkFor returns the chunk whose denominator den divides, or -1. Every
// denominator that went into Build divides some chunk by construction, as
// does any divisor of one (reduced fractions).
func (p *Plan) chunkFor(den int64) int {
	for c := 0; c < p.n; c++ {
		if p.dens[c]%den == 0 {
			return c
		}
	}
	return -1
}

// Chunked is a mutable exact rational bound to a Plan: an int64 integer
// part plus one fractional numerator per plan chunk, each kept in
// [0, chunk denominator). All operations are exact; when an intermediate
// genuinely exceeds the representation the value promotes to a big.Rat
// (tallied on the plan) and stays exact. Operations mutate the receiver —
// a Chunked is a register, not a value — which is what lets the hot
// loops run without copying the chunk array.
//
// The analyzers obtain their registers from the Scratch register bank
// (demand.Scratch.Reg), so steady-state analyses allocate nothing.
type Chunked struct {
	plan *Plan
	ip   int64 // integer part; the value is ip + Σ fr[c]/plan.dens[c]
	// br, when non-nil, carries the promoted value; ip/fr are then stale.
	br *big.Rat
	fr [MaxChunks]int64
}

// Init binds the register to a plan and zeroes it.
func (v *Chunked) Init(p *Plan) {
	v.plan = p
	v.ip = 0
	v.br = nil
	for c := range v.fr {
		v.fr[c] = 0
	}
}

// SetZero resets the value to zero, keeping the plan binding.
func (v *Chunked) SetZero() {
	v.ip = 0
	v.br = nil
	for c := 0; c < v.plan.n; c++ {
		v.fr[c] = 0
	}
}

// SetInt sets the value to the integer x.
func (v *Chunked) SetInt(x int64) {
	v.SetZero()
	v.ip = x
}

// CopyFrom makes v an independent copy of o (same plan).
func (v *Chunked) CopyFrom(o *Chunked) {
	*v = *o
	if o.br != nil {
		v.br = new(big.Rat).Set(o.br)
	}
}

// Promoted reports whether the value fell back to math/big.
func (v *Chunked) Promoted() bool { return v.br != nil }

// promote materializes the value as a big.Rat and switches the register
// to the promoted representation, tallying the exit on the plan.
func (v *Chunked) promote() *big.Rat {
	if v.br != nil {
		return v.br
	}
	r := new(big.Rat).SetInt64(v.ip)
	var t big.Rat
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c] != 0 {
			t.SetFrac64(v.fr[c], v.plan.dens[c])
			r.Add(r, &t)
		}
	}
	v.br = r
	v.plan.promotions++
	return r
}

// Rat returns the value as a fresh big.Rat the caller owns.
func (v *Chunked) Rat() *big.Rat {
	if v.br != nil {
		return new(big.Rat).Set(v.br)
	}
	r := new(big.Rat).SetInt64(v.ip)
	var t big.Rat
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c] != 0 {
			t.SetFrac64(v.fr[c], v.plan.dens[c])
			r.Add(r, &t)
		}
	}
	return r
}

// AddInt adds the integer x.
func (v *Chunked) AddInt(x int64) {
	if v.br != nil {
		v.br.Add(v.br, new(big.Rat).SetInt64(x))
		return
	}
	s, ok := addInt64(v.ip, x)
	if !ok {
		v.promote().Add(v.br, new(big.Rat).SetInt64(x))
		return
	}
	v.ip = s
}

// AddRat adds num/den (den > 0).
func (v *Chunked) AddRat(num, den int64) {
	if den == 1 {
		v.AddInt(num)
		return
	}
	if v.br != nil {
		v.br.Add(v.br, big.NewRat(num, den))
		return
	}
	c := v.plan.chunkFor(den)
	if c < 0 {
		v.promote().Add(v.br, big.NewRat(num, den))
		return
	}
	q, r := num/den, num%den
	if r < 0 {
		r += den
		q--
	}
	// r < den and mult = Q/den, so r*mult < Q <= 2^62: no overflow, and
	// the carry-adjusted sum stays below 2^63.
	nf := v.fr[c] + r*(v.plan.dens[c]/den)
	if nf >= v.plan.dens[c] {
		nf -= v.plan.dens[c]
		q++ // |q| < 2^63-1 here since r != 0 implies |num/den| < 2^63-1
	}
	nip, ok := addInt64(v.ip, q)
	if !ok {
		v.promote().Add(v.br, big.NewRat(num, den))
		return
	}
	v.ip = nip
	v.fr[c] = nf
}

// SubRat subtracts num/den (den > 0).
func (v *Chunked) SubRat(num, den int64) {
	if num == math.MinInt64 {
		v.promote().Sub(v.br, big.NewRat(num, den))
		return
	}
	v.AddRat(-num, den)
}

// Add adds another register bound to the same plan.
func (v *Chunked) Add(o *Chunked) {
	if v.br != nil || o.br != nil {
		r := v.promote()
		r.Add(r, o.ratView())
		return
	}
	// First pass read-only so a promotion sees an unmodified register.
	var carry int64
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c]+o.fr[c] >= v.plan.dens[c] {
			carry++
		}
	}
	nip, ok := addInt64(v.ip, o.ip)
	if ok {
		nip, ok = addInt64(nip, carry)
	}
	if !ok {
		r := v.promote()
		r.Add(r, o.ratView())
		return
	}
	for c := 0; c < v.plan.n; c++ {
		nf := v.fr[c] + o.fr[c]
		if nf >= v.plan.dens[c] {
			nf -= v.plan.dens[c]
		}
		v.fr[c] = nf
	}
	v.ip = nip
}

// Sub subtracts another register bound to the same plan.
func (v *Chunked) Sub(o *Chunked) {
	if v.br != nil || o.br != nil {
		r := v.promote()
		r.Sub(r, o.ratView())
		return
	}
	var borrow int64
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c]-o.fr[c] < 0 {
			borrow++
		}
	}
	nip, ok := SubChecked(v.ip, o.ip)
	if ok {
		nip, ok = SubChecked(nip, borrow)
	}
	if !ok {
		r := v.promote()
		r.Sub(r, o.ratView())
		return
	}
	for c := 0; c < v.plan.n; c++ {
		nf := v.fr[c] - o.fr[c]
		if nf < 0 {
			nf += v.plan.dens[c]
		}
		v.fr[c] = nf
	}
	v.ip = nip
}

// AddScaled adds u*dt for dt >= 0, the slope-advance step of the
// superposed demand accumulators. Per chunk the product u.fr[c]*dt is
// formed as a 128-bit value and reduced by one bits.Div64 — exact, and
// safe because fr < Q and dt < 2^64 keep the dividend's high word below
// the divisor.
func (v *Chunked) AddScaled(u *Chunked, dt int64) {
	if dt == 0 {
		return
	}
	if v.br != nil || u.br != nil || dt < 0 {
		r := v.promote()
		prod := new(big.Rat).Mul(u.ratView(), new(big.Rat).SetInt64(dt))
		r.Add(r, prod)
		return
	}
	ipAdd, ok := mulInt64(u.ip, dt)
	if !ok {
		v.addScaledBig(u, dt)
		return
	}
	var tmp [MaxChunks]int64
	var carry int64
	for c := 0; c < u.plan.n; c++ {
		if u.fr[c] == 0 {
			tmp[c] = v.fr[c]
			continue
		}
		den := uint64(u.plan.dens[c])
		hi, lo := bits.Mul64(uint64(u.fr[c]), uint64(dt))
		q, r := bits.Div64(hi, lo, den)
		nf := v.fr[c] + int64(r)
		if nf >= int64(den) {
			nf -= int64(den)
			q++ // q < dt <= 2^63-1, so q+1 cannot wrap
		}
		tmp[c] = nf
		carry, ok = addInt64(carry, int64(q))
		if !ok {
			v.addScaledBig(u, dt)
			return
		}
	}
	nip, ok := addInt64(v.ip, ipAdd)
	if ok {
		nip, ok = addInt64(nip, carry)
	}
	if !ok {
		v.addScaledBig(u, dt)
		return
	}
	v.ip = nip
	copy(v.fr[:v.plan.n], tmp[:v.plan.n])
}

// addScaledBig is the promoted slow path of AddScaled.
func (v *Chunked) addScaledBig(u *Chunked, dt int64) {
	r := v.promote()
	prod := new(big.Rat).Mul(u.ratView(), new(big.Rat).SetInt64(dt))
	r.Add(r, prod)
}

// MulInt multiplies by the integer x.
func (v *Chunked) MulInt(x int64) {
	if v.br != nil {
		v.br.Mul(v.br, new(big.Rat).SetInt64(x))
		return
	}
	if x == 0 {
		v.SetZero()
		return
	}
	neg := x < 0
	if neg {
		if x == math.MinInt64 {
			r := v.promote()
			r.Mul(r, new(big.Rat).SetInt64(x))
			return
		}
		x = -x
	}
	ipMul, ok := mulInt64(v.ip, x)
	if !ok {
		v.mulIntBig(x, neg)
		return
	}
	var tmp [MaxChunks]int64
	var carry int64
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c] == 0 {
			tmp[c] = 0
			continue
		}
		den := uint64(v.plan.dens[c])
		hi, lo := bits.Mul64(uint64(v.fr[c]), uint64(x))
		q, r := bits.Div64(hi, lo, den)
		tmp[c] = int64(r)
		carry, ok = addInt64(carry, int64(q))
		if !ok {
			v.mulIntBig(x, neg)
			return
		}
	}
	nip, ok := addInt64(ipMul, carry)
	if !ok {
		v.mulIntBig(x, neg)
		return
	}
	v.ip = nip
	copy(v.fr[:v.plan.n], tmp[:v.plan.n])
	if neg {
		v.Neg()
	}
}

// mulIntBig is the promoted slow path of MulInt; x is the magnitude.
func (v *Chunked) mulIntBig(x int64, neg bool) {
	r := v.promote()
	m := new(big.Rat).SetInt64(x)
	if neg {
		m.Neg(m)
	}
	r.Mul(r, m)
}

// Neg negates the value in place: -(ip + f) = (-ip - m) + Σ (Q_c -
// fr[c])/Q_c over the m chunks with a nonzero numerator.
func (v *Chunked) Neg() {
	if v.br != nil {
		v.br.Neg(v.br)
		return
	}
	var m int64
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c] != 0 {
			m++
		}
	}
	nip, ok := SubChecked(0, v.ip)
	if ok {
		nip, ok = SubChecked(nip, m)
	}
	if !ok {
		r := v.promote()
		r.Neg(r)
		return
	}
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c] != 0 {
			v.fr[c] = v.plan.dens[c] - v.fr[c]
		}
	}
	v.ip = nip
}

// ratView renders the value as a big.Rat without forcing a promotion of
// the receiver; the caller must not mutate or retain the result.
func (v *Chunked) ratView() *big.Rat {
	if v.br != nil {
		return v.br
	}
	return v.Rat()
}

// CmpInt compares the value with the integer x and returns -1, 0 or +1.
// The fractional part f satisfies 0 <= f < n (one unit per chunk), so the
// integer part decides every comparison except a window of at most n-1
// integers, which the exact digit recursion settles.
func (v *Chunked) CmpInt(x int64) int {
	if v.br != nil {
		return v.br.Cmp(new(big.Rat).SetInt64(x))
	}
	r0, ok := SubChecked(x, v.ip)
	if !ok {
		// x - ip overflowed: the operands are astronomically far apart and
		// their order is decided by sign alone.
		if x > 0 {
			return -1
		}
		return 1
	}
	if r0 < 0 {
		return 1
	}
	if r0 == 0 {
		for c := 0; c < v.plan.n; c++ {
			if v.fr[c] != 0 {
				return 1
			}
		}
		return 0
	}
	if r0 >= int64(v.plan.n) {
		return -1
	}
	return v.cmpFracInt(uint64(r0))
}

// Cmp compares with another register bound to the same plan.
func (v *Chunked) Cmp(o *Chunked) int {
	if v.br != nil || o.br != nil {
		return v.ratView().Cmp(o.ratView())
	}
	// Compare the fractional-part difference against the integer gap.
	// f_v - f_o lies in (-n, n); gaps at least n are decided outright.
	gap, ok := SubChecked(o.ip, v.ip)
	if !ok {
		if o.ip > 0 {
			return -1
		}
		return 1
	}
	n := int64(v.plan.n)
	if gap >= n {
		return -1
	}
	if gap <= -n {
		return 1
	}
	// Rewrite the fractional difference chunk by chunk without going
	// negative: (fr_v - fr_o)/Q = a/Q - borrow with a = (fr_v + Q - fr_o)
	// mod Q and borrow 1 exactly when that sum stayed below Q. Then
	// v - o = Σ a[c]/Q_c - (gap + borrows), a single-sided comparison of a
	// chunk sum in [0, n) against an integer.
	var a [MaxChunks]uint64
	var borrows int64
	for c := 0; c < v.plan.n; c++ {
		a[c] = uint64(v.fr[c])
		if o.fr[c] != 0 {
			na := a[c] + uint64(v.plan.dens[c]) - uint64(o.fr[c])
			if na >= uint64(v.plan.dens[c]) {
				na -= uint64(v.plan.dens[c])
			} else {
				borrows++
			}
			a[c] = na
		}
	}
	t := gap + borrows
	// Σ a[c]/Q_c is in [0, n) and t may lie outside that window.
	if t < 0 {
		return 1
	}
	if t == 0 {
		for c := 0; c < v.plan.n; c++ {
			if a[c] != 0 {
				return 1
			}
		}
		return 0
	}
	if t >= n {
		return -1
	}
	return cmpDigits(&a, v.plan, uint64(t))
}

// cmpFracInt compares the fractional part Σ fr[c]/Q_c with the integer r,
// 1 <= r < n.
func (v *Chunked) cmpFracInt(r uint64) int {
	var a [MaxChunks]uint64
	for c := 0; c < v.plan.n; c++ {
		a[c] = uint64(v.fr[c])
	}
	return cmpDigits(&a, v.plan, r)
}

// cmpDigits exactly compares Σ a[c]/Q_c (each a[c] < Q_c, at most n terms)
// with the integer r in [1, n), allocation-free, by expanding the sum in
// base 2^64: per level each term yields a digit q_c = floor(a[c]*2^64/Q_c)
// and a residue, the digit sum is compared against the target, and only a
// sub-unit discrepancy recurses onto the residues. Distinct values differ
// by at least 1/lcm(Q_c) >= 2^-1984, so at most 32 levels decide; the cap
// is pure defense.
func cmpDigits(a *[MaxChunks]uint64, p *Plan, r uint64) int {
	for level := 0; level < 64; level++ {
		var sumHi, sumLo uint64
		anyRem := false
		for c := 0; c < p.n; c++ {
			if a[c] == 0 {
				continue
			}
			q, rem := bits.Div64(a[c], 0, uint64(p.dens[c]))
			a[c] = rem
			var carry uint64
			sumLo, carry = bits.Add64(sumLo, q, 0)
			sumHi += carry
			if rem != 0 {
				anyRem = true
			}
		}
		// Compare sum + (residue fraction in [0, n)) with r*2^64.
		if sumHi > r || (sumHi == r && sumLo > 0) {
			return 1
		}
		loD, borrow := bits.Sub64(0, sumLo, 0)
		hiD, _ := bits.Sub64(r-sumHi, 0, borrow)
		// delta = hiD*2^64 + loD = r*2^64 - sum >= 0.
		if hiD > 0 || loD >= MaxChunks {
			return -1 // residue fraction < n <= delta
		}
		if loD == 0 {
			if anyRem {
				return 1
			}
			return 0
		}
		if !anyRem {
			return -1
		}
		r = loD
	}
	return 0
}

// Sign returns -1, 0 or +1.
func (v *Chunked) Sign() int {
	if v.br != nil {
		return v.br.Sign()
	}
	return v.CmpInt(0)
}

// Float returns the value as float64 (possibly rounded).
func (v *Chunked) Float() float64 {
	if v.br != nil {
		f, _ := v.br.Float64()
		return f
	}
	f := float64(v.ip)
	for c := 0; c < v.plan.n; c++ {
		if v.fr[c] != 0 {
			f += float64(v.fr[c]) / float64(v.plan.dens[c])
		}
	}
	return f
}

// QuoCeilChunked returns ceil(a/b) for a >= 0 and b > 0 and whether the
// result fits in int64, using t as a scratch register (clobbered). The
// quotient is located by a float64 guess and certified by exact
// comparisons, so the result is exact and — promoted inputs aside —
// allocation-free. A probe product b*q that leaves the register range
// promotes t once; the quotient is then settled in math/big, so one call
// adds at most one promotion to the plan.
func QuoCeilChunked(a, b, t *Chunked) (int64, bool) {
	if a.br != nil || b.br != nil {
		return quoCeilBig(a.ratView(), b.ratView())
	}
	if a.Sign() == 0 {
		return 0, true
	}
	// geB reports whether b*q >= a. After the first promoted probe it
	// answers true without probing, which ends the search quickly.
	promoted := false
	geB := func(q int64) bool {
		if promoted {
			return true
		}
		t.CopyFrom(b)
		t.MulInt(q)
		if promoted = t.Promoted(); promoted {
			return true
		}
		return t.Cmp(a) >= 0
	}
	g := a.Float() / b.Float()
	if !(g < float64(int64(1)<<62)) {
		// The quotient flirts with the int64 range; settle it in big.
		return quoCeilBig(a.Rat(), b.Rat())
	}
	lo := int64(g) - 2
	if lo < 0 {
		lo = 0
	}
	hi := int64(g) + 2
	if geB(lo) {
		// The guess overshot: restart the bracket from zero (b*0 = 0 < a).
		hi, lo = lo, 0
	}
	for !geB(hi) {
		lo = hi
		if hi > (int64(1) << 61) {
			return quoCeilBig(a.Rat(), b.Rat())
		}
		hi *= 2
	}
	// Invariant: b*lo < a <= b*hi.
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if geB(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	if promoted {
		return quoCeilBig(a.Rat(), b.Rat())
	}
	return hi, true
}

// quoCeilBig is the arbitrary-precision path of QuoCeilChunked.
func quoCeilBig(s, o *big.Rat) (int64, bool) {
	return ceilRatInt64(new(big.Rat).Quo(s, o))
}
