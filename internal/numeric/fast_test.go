package numeric

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fastOf returns the rational num/den as a Fast.
func fastOf(num, den int64) Fast { return Fast{}.AddRat(num, den) }

// applyOp applies one randomized operation to the Fast value and its
// big.Rat shadow and returns a description for failure messages.
func applyOp(rng *rand.Rand, f Fast, r *big.Rat, huge bool) (Fast, string) {
	den := rng.Int63n(1000) + 1
	num := rng.Int63n(2000) - 1000
	dt := rng.Int63n(100000)
	if huge {
		// Magnitudes near int64 overflow with coprime-ish denominators.
		den = math.MaxInt64/2 - rng.Int63n(1000)
		num = math.MaxInt64/3 - rng.Int63n(1000)
		dt = rng.Int63n(math.MaxInt64 / 2)
	}
	switch rng.Intn(4) {
	case 0:
		r.Add(r, big.NewRat(num, den))
		return f.AddRat(num, den), "AddRat"
	case 1:
		r.Sub(r, big.NewRat(num, den))
		return f.AddRat(-num, den), "AddRat(-)"
	case 2:
		r.Add(r, big.NewRat(num, 1))
		return f.AddInt(num), "AddInt"
	default:
		r.Add(r, new(big.Rat).Mul(big.NewRat(num, den), big.NewRat(dt, 1)))
		return f.AddScaled(fastOf(num, den), dt), "AddScaled"
	}
}

// TestFastMatchesRat drives random op sequences through Fast and a
// big.Rat reference and requires exact agreement after every step.
func TestFastMatchesRat(t *testing.T) {
	for _, tc := range []struct {
		name string
		huge bool
	}{
		{"small", false},
		{"overflowing", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for seq := range 200 {
				f, r := Fast{}, new(big.Rat)
				for step := range 30 {
					var op string
					f, op = applyOp(rng, f, r, tc.huge)
					if f.rat().Cmp(r) != 0 {
						t.Fatalf("seq %d step %d (%s): fast %s != rat %s",
							seq, step, op, f.rat(), r)
					}
					v := rng.Int63n(2000) - 1000
					if got, want := f.CmpInt(v), r.Cmp(big.NewRat(v, 1)); got != want {
						t.Fatalf("seq %d step %d: CmpInt(%d) = %d, want %d", seq, step, v, got, want)
					}
				}
			}
		})
	}
}

// TestFastPromotionAndDemotion pins the fallback contract: denominators
// beyond int64 promote to big.Rat, and values demote again as soon as the
// normalized result fits.
func TestFastPromotionAndDemotion(t *testing.T) {
	// Two coprime denominators whose product exceeds int64.
	p1 := int64(math.MaxInt64/2 - 1)
	p2 := int64(math.MaxInt64/3 - 4)
	for GCD(p1, p2) != 1 {
		p2--
	}
	f := Fast{}.AddRat(1, p1)
	if f.br != nil {
		t.Fatalf("single fraction should stay in int64")
	}
	f = f.AddRat(1, p2)
	if f.br == nil {
		t.Fatalf("lcm overflow must promote to big.Rat")
	}
	want := new(big.Rat).Add(big.NewRat(1, p1), big.NewRat(1, p2))
	if f.rat().Cmp(want) != 0 {
		t.Fatalf("promoted value %s, want %s", f.rat(), want)
	}
	f = f.AddRat(-1, p2)
	if f.br != nil {
		t.Fatalf("value fitting int64 again must demote")
	}
	if f.rat().Cmp(big.NewRat(1, p1)) != 0 {
		t.Fatalf("demoted value %s, want 1/%d", f.rat(), p1)
	}
}

// TestFastZeroValue checks that the zero value is the number zero.
func TestFastZeroValue(t *testing.T) {
	var f Fast
	if f.CmpInt(0) != 0 || f.Float() != 0 {
		t.Fatalf("zero value is not the number zero: %+v", f)
	}
	if got := f.AddInt(7).CmpInt(7); got != 0 {
		t.Fatalf("0+7 != 7 (cmp %d)", got)
	}
}

// TestFastCmpAgainstBig cross-checks CmpInt on values around the
// 128-bit comparison path.
func TestFastCmpAgainstBig(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := []int64{0, 1, -1, 2, math.MaxInt64, math.MaxInt64 - 1, math.MaxInt64 / 2}
	for range 2000 {
		a := fastOf(rng.Int63()-rng.Int63(), rng.Int63n(math.MaxInt64-1)+1)
		v := vals[rng.Intn(len(vals))]
		if got, want := a.CmpInt(v), a.rat().Cmp(big.NewRat(v, 1)); got != want {
			t.Fatalf("CmpInt(%s, %d) = %d, want %d", a.rat(), v, got, want)
		}
	}
}
