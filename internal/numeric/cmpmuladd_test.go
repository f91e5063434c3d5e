package numeric

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"testing"
)

// The tests below check UtilSum.CmpMulAdd, Devi's prefix condition
// u·d + g + b against d, on its bracket and against big.Rat.

// mulAddBracket returns the bracket of u·d + g + b: its lower end
// L = lo(u)·d + lo(g) + b and its upper end L + E·2^-128 with
// E = u.inexact·d + g.inexact.
func mulAddBracket(u, g UtilSum, d, b int64) (lo, hi *big.Rat, exact bool) {
	lo = new(big.Rat).Mul(loRat(u), new(big.Rat).SetInt64(d))
	lo.Add(lo, loRat(g))
	lo.Add(lo, new(big.Rat).SetInt64(b))
	e := new(big.Int).Mul(new(big.Int).SetUint64(u.inexact), big.NewInt(d))
	e.Add(e, new(big.Int).SetUint64(g.inexact))
	hi = new(big.Rat).SetFrac(e, new(big.Int).Lsh(big.NewInt(1), 128))
	hi.Add(hi, lo)
	return lo, hi, e.Sign() == 0
}

// checkMulAdd asserts the CmpMulAdd contract for d > 0 and b >= 0.
// CmpMulAdd decides exactly when the bracket does: when it is the point
// L, or the open interval (L, L + E·2^-128) lies on one side of d,
// touching it at most with an end, and neither integer part saturated.
// A decided result is the side. When the exact value ref is known it
// must lie in the bracket and compare with d as a decided result says.
func checkMulAdd(t *testing.T, u, g UtilSum, d, b int64, ref *big.Rat, what string) (decided bool) {
	t.Helper()
	cmp, ok := u.CmpMulAdd(d, g, b)
	dr := new(big.Rat).SetInt64(d)
	lo, hi, exact := mulAddBracket(u, g, d, b)
	saturated := u.ip == math.MaxUint64 || g.ip == math.MaxUint64
	want, wantOK := 0, false
	switch {
	case saturated:
	case exact:
		want, wantOK = lo.Cmp(dr), true
	case lo.Cmp(dr) >= 0:
		want, wantOK = 1, true
	case hi.Cmp(dr) <= 0:
		want, wantOK = -1, true
	}
	if ok != wantOK || ok && cmp != want {
		t.Fatalf("%s: CmpMulAdd = (%d, %v), the bracket [%s, %s) against %d decides (%d, %v)",
			what, cmp, ok, lo.RatString(), hi.RatString(), d, want, wantOK)
	}
	if ref == nil {
		return ok
	}
	if !saturated && (exact && ref.Cmp(lo) != 0 || !exact && (ref.Cmp(lo) <= 0 || ref.Cmp(hi) >= 0)) {
		t.Fatalf("%s: exact value %s outside the bracket [%s, %s)", what, ref.RatString(), lo.RatString(), hi.RatString())
	}
	if ok && cmp != ref.Cmp(dr) {
		t.Fatalf("%s: CmpMulAdd = %d, big.Rat %d (%s against %d)", what, cmp, ref.Cmp(dr), ref.RatString(), d)
	}
	return ok
}

// mulAddRef returns ur·d + gr + b.
func mulAddRef(ur, gr *big.Rat, d, b int64) *big.Rat {
	r := new(big.Rat).Mul(ur, new(big.Rat).SetInt64(d))
	r.Add(r, gr)
	return r.Add(r, new(big.Rat).SetInt64(b))
}

// TestCmpMulAddBoundary pins the decision at the bracket's ends: lower
// bounds one unit of 2^-128 to either side of d, fractions whose carry
// reaches the integer part, an integer part past 2^64, saturation, and
// the crafted sums 1 ± 1/(pqr) of nearOne scaled by deadlines.
func TestCmpMulAddBoundary(t *testing.T) {
	const maxD = math.MaxInt64
	ones := uint64(math.MaxUint64)
	for _, c := range []struct {
		name    string
		u, g    UtilSum
		d, b    int64
		cmp     int
		decided bool
	}{
		{"L = d exactly", UtilSum{ip: 1}, UtilSum{}, 7, 0, 0, true},
		{"L = d, a truncated term above it", UtilSum{ip: 1}, UtilSum{inexact: 1}, 7, 0, 1, true},
		{"L = d + 2^-128", UtilSum{ip: 1}, UtilSum{lo: 1}, 7, 0, 1, true},
		{"L = d - 2^-128 exactly", UtilSum{}, UtilSum{ip: 6, hi: ones, lo: ones}, 7, 0, -1, true},
		{"L + E = d", UtilSum{}, UtilSum{ip: 6, hi: ones, lo: ones, inexact: 1}, 7, 0, -1, true},
		{"L + E = d + 2^-128", UtilSum{}, UtilSum{ip: 6, hi: ones, lo: ones, inexact: 2}, 7, 0, 0, false},
		{"L + E = d, two units", UtilSum{}, UtilSum{ip: 6, hi: ones, lo: ones - 1, inexact: 2}, 7, 0, -1, true},
		{"L + E = d, the blocking's unit", UtilSum{}, UtilSum{ip: 5, hi: ones, lo: ones, inexact: 1}, 7, 1, -1, true},
		{"L two below d", UtilSum{}, UtilSum{ip: 4, hi: ones, lo: ones, inexact: ones}, 7, 0, -1, true},
		{"u·d carries into the integer part", UtilSum{hi: ones, lo: ones, inexact: 1}, UtilSum{}, maxD, 0, -1, true},
		{"u·d carries, g's unit tips it", UtilSum{hi: ones, lo: ones, inexact: 1}, UtilSum{inexact: 1}, maxD, 0, 0, false},
		{"u·d carries, g's fraction tips it", UtilSum{hi: ones, lo: ones}, UtilSum{hi: ones}, maxD, 0, 1, true},
		{"fraction sum carries to L = d", UtilSum{hi: 1 << 63}, UtilSum{hi: 1 << 63}, 3, 1, 0, true},
		{"integer part 2^64 - 2", UtilSum{ip: 2}, UtilSum{}, maxD, 0, 1, true},
		{"integer part past 2^64", UtilSum{ip: 3}, UtilSum{}, maxD, 0, 1, true},
		{"blocking past 2^64", UtilSum{ip: 1}, UtilSum{ip: ones - 1}, maxD, maxD, 1, true},
		{"saturated u", UtilSum{ip: ones}, UtilSum{}, 1, 0, 0, false},
		{"saturated g", UtilSum{}, UtilSum{ip: ones}, 1, 0, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cmp, ok := c.u.CmpMulAdd(c.d, c.g, c.b)
			if cmp != c.cmp || ok != c.decided {
				t.Fatalf("CmpMulAdd = (%d, %v), want (%d, %v)", cmp, ok, c.cmp, c.decided)
			}
			if c.u.ip != ones && c.g.ip != ones {
				checkMulAdd(t, c.u, c.g, c.d, c.b, nil, c.name)
			}
		})
	}
	if _, ok := (UtilSum{}).CmpMulAdd(0, UtilSum{}, 0); ok {
		t.Errorf("d = 0 decided")
	}
	if _, ok := (UtilSum{}).CmpMulAdd(1, UtilSum{}, -1); ok {
		t.Errorf("b < 0 decided")
	}

	// Exact ties: 1/3 at d = 3 plus b = 2, and Devi's task (C, D, T) =
	// (2, 2, 3), whose gap term (3-2)·2/3 closes 2/3·2 to 2.
	u, g := UtilSum{}.Add(1, 3), UtilSum{}
	if checkMulAdd(t, u, g, 3, 2, big.NewRat(3, 1), "1/3·3 + 2") {
		t.Errorf("1/3·3 + 2 against 3 decided")
	}
	u, g = UtilSum{}.Add(2, 3), UtilSum{}.AddMul(1, 2, 3)
	if checkMulAdd(t, u, g, 2, 0, big.NewRat(2, 1), "(2, 2, 3)") {
		t.Errorf("task (2, 2, 3) against its deadline decided")
	}

	// Crafted sums 1 ± 1/(pqr), as utilization and as gap sum, against
	// deadlines up to MaxInt64.
	for _, sign := range []int64{1, -1} {
		nums, dens := nearOne(sign)
		var s UtilSum
		ref := new(big.Rat)
		for i := range nums {
			s = s.Add(nums[i], dens[i])
			ref.Add(ref, big.NewRat(nums[i], dens[i]))
		}
		for _, d := range []int64{1, 3, 1 << 40, maxD} {
			what := fmt.Sprintf("1%+d/(pqr) at d = %d", sign, d)
			if checkMulAdd(t, s, UtilSum{}, d, 0, mulAddRef(ref, new(big.Rat), d, 0), what) {
				t.Errorf("%s: decided", what)
			}
			// The gap sum carries the near-tie: d - 1 + (1 ± ε) against d.
			what = fmt.Sprintf("gap 1%+d/(pqr), b = d - 1 = %d", sign, d-1)
			if checkMulAdd(t, UtilSum{}, s, d, d-1, mulAddRef(new(big.Rat), ref, d, d-1), what) {
				t.Errorf("%s: decided", what)
			}
		}
	}
}

// FuzzCmpMulAdd builds a prefix's utilization u and gap sum g from a
// program and checks CmpMulAdd against big.Rat after every record (see
// checkMulAdd). A record is 17 bytes: an op byte and two big-endian
// uint64 values v1, v2, read as int64s without their sign bit. The op
// picks the denominator (den1, den2, den3, 3, 7, 9 or 2^62) and the
// kind: u += v1/den; g += (v1 mod den)·v2/den, a product up to 2^126; a
// task with WCET v1 and gap v2 mod den; or a task with WCET
// 1 + v1 mod den. The blocking b is tie, or with tie's low bits 1 or 2
// the value that puts the sum on d or one step below it:
// d - floor(u·d + g), minus one.
func FuzzCmpMulAdd(f *testing.F) {
	rec := func(op byte, v1, v2 int64) []byte {
		b := []byte{op}
		b = binary.BigEndian.AppendUint64(b, uint64(v1))
		return binary.BigEndian.AppendUint64(b, uint64(v2))
	}
	cat := func(recs ...[]byte) []byte {
		var b []byte
		for _, r := range recs {
			b = append(b, r...)
		}
		return b
	}
	// Thirds, sevenths and ninths summing to exact ties.
	f.Add(cat(rec(3<<2|3, 0, 1), rec(4<<2|3, 2, 0), rec(5<<2|0, 2, 0)), int64(9), int64(3), int64(7), int64(9), uint8(1))
	f.Add(cat(rec(3<<2|2, 1, 1), rec(4<<2|2, 3, 2)), int64(5), int64(3), int64(7), int64(9), uint8(1))
	// Deadlines and gap products at the top of the range.
	f.Add(cat(rec(0<<2|1, math.MaxInt64-5, math.MaxInt64), rec(1<<2|2, math.MaxInt64/3, math.MaxInt64-2)),
		int64(math.MaxInt64), int64(math.MaxInt64), int64(math.MaxInt64-1), int64(math.MaxInt64/7), uint8(2))
	f.Add(cat(rec(6<<2|0, 1<<61, 0), rec(6<<2|1, 1<<62-1, 1<<62)), int64(math.MaxInt64-1), int64(1), int64(2), int64(4), uint8(5))
	// nearOne's 1 ± 1/(pqr), as utilization and as gap sum.
	for _, sign := range []int64{1, -1} {
		nums, dens := nearOne(sign)
		tie := uint8(1)
		if sign < 0 {
			tie = 2
		}
		u := cat(rec(0<<2|0, nums[0], 0), rec(1<<2|0, nums[1], 0), rec(2<<2|0, nums[2], 0))
		f.Add(u, int64(1<<20), dens[0], dens[1], dens[2], tie)
		g := cat(rec(0<<2|1, nums[0], 1), rec(1<<2|1, nums[1], 1), rec(2<<2|1, nums[2], 1))
		f.Add(g, int64(math.MaxInt64), dens[0], dens[1], dens[2], tie)
	}
	f.Fuzz(func(t *testing.T, prog []byte, d, den1, den2, den3 int64, tie uint8) {
		if d <= 0 || den1 <= 0 || den2 <= 0 || den3 <= 0 {
			return
		}
		dens := [...]int64{den1, den2, den3, 3, 7, 9, 1 << 62}
		var u, g UtilSum
		ur, gr := new(big.Rat), new(big.Rat)
		for i := 0; i+17 <= len(prog) && i < 64*17; i += 17 {
			op := prog[i]
			v1 := int64(binary.BigEndian.Uint64(prog[i+1:]) &^ (1 << 63))
			v2 := int64(binary.BigEndian.Uint64(prog[i+9:]) &^ (1 << 63))
			den := dens[int(op>>2)%len(dens)]
			var c, a int64 // a term c/den of u and a·c/den of g
			switch op & 3 {
			case 0:
				c = v1
			case 1:
				a, c = v1%den, v2
			case 2:
				c, a = v1, v2%den
			default:
				c, a = 1+v1%den, v2%den
			}
			if op&3 != 1 {
				u = u.Add(c, den)
				ur.Add(ur, big.NewRat(c, den))
			}
			if a > 0 {
				g = g.AddMul(a, c, den)
				gr.Add(gr, new(big.Rat).Mul(big.NewRat(a, den), new(big.Rat).SetInt64(c)))
			}
			b := int64(tie)
			if k := tie & 3; k == 1 || k == 2 {
				r := mulAddRef(ur, gr, d, 0)
				fl := new(big.Int).Quo(r.Num(), r.Denom())
				fl.Sub(big.NewInt(d), fl)
				if k == 2 {
					fl.Sub(fl, big.NewInt(1))
				}
				b = 0
				if fl.Sign() > 0 && fl.IsInt64() {
					b = fl.Int64()
				}
			}
			checkMulAdd(t, u, g, d, b, mulAddRef(ur, gr, d, b), fmt.Sprintf("record %d (op %d)", i/17, op))
		}
	})
}
