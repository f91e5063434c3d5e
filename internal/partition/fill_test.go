package partition

import (
	"encoding/binary"
	"math"
	"math/big"
	"testing"

	"repro/internal/model"
)

// fillTasks decodes raw as consecutive (WCET, period) pairs of
// little-endian int64s, each mapped into [1, MaxInt64], at most 64 of
// them, scaled to a processor of the given speed.
func fillTasks(speed int64, raw []byte) model.TaskSet {
	positive := func(v int64) int64 { return max(v&math.MaxInt64, 1) }
	var ts model.TaskSet
	for len(raw) >= 16 && len(ts) < 64 {
		c := positive(int64(binary.LittleEndian.Uint64(raw)))
		p := positive(int64(binary.LittleEndian.Uint64(raw[8:])))
		ts = append(ts, scaledTask(model.Task{WCET: c, Deadline: c, Period: p}, positive(speed)))
		raw = raw[16:]
	}
	return ts
}

// fillBytes encodes (WCET, period) pairs for fillTasks.
func fillBytes(pairs ...[2]int64) []byte {
	var raw []byte
	for _, pr := range pairs {
		raw = binary.LittleEndian.AppendUint64(raw, uint64(pr[0]))
		raw = binary.LittleEndian.AppendUint64(raw, uint64(pr[1]))
	}
	return raw
}

// ratFill is the fill of ts on big.Rat.
func ratFill(ts model.TaskSet) *big.Rat {
	var sum, term big.Rat
	for _, t := range ts {
		sum.Add(&sum, term.SetFrac64(t.WCET, t.Period))
	}
	return &sum
}

// FuzzFillVsBigRat compares the exact fill, a reduced uint64 fraction
// that moves to math/big when it overflows, with the big.Rat sum of the
// same fractions on every input. The fill of all tasks must report the
// same RatString and Float64. Split into two bins x (the first half,
// rounded up) and y, the comparisons the placement makes where its
// brackets cannot decide must agree with big.Rat: fill against fill, x
// plus y's first task against 1 (the gate), x and y each grown by a task
// of the same period (balance), and the remaining capacities
// speed·(1−fill) (worst-fit) of x at the input's speed against y at
// speed 1 and at the next lower speed, also where one side overflows a
// uint64 and the other does not.
func FuzzFillVsBigRat(f *testing.F) {
	const top = math.MaxInt64
	primes := primesAbove(1<<31, 6) // pairwise coprime, three multiply above 2^64
	// Pairwise coprime below 2^32: two of them sum to a denominator near
	// 2^64.
	high := primesAbove(1<<32-1<<12, 4)
	// between/2^62 lies just above 1/p0 + 1/p1, by less than 1/p2.
	pair := new(big.Int).Lsh(big.NewInt(primes[0]+primes[1]), 62)
	between := pair.Quo(pair, big.NewInt(primes[0]*primes[1])).Int64() + 1
	nearOne := func(sign int64) [][2]int64 {
		// Two tasks fit a uint64 fraction, the third grows it past one to
		// 1 ± 1/(pqr), pqr > 2^66.
		wcets, periods := nearOnePeriods(1<<22, sign)
		return [][2]int64{{wcets[0], periods[0]}, {wcets[1], periods[1]}, {wcets[2], periods[2]}}
	}
	for _, s := range []struct {
		speed int64
		pairs [][2]int64
	}{
		{1, nil},                                  // an empty bin
		{1, [][2]int64{{3, 10}}},                  // a single task
		{1, [][2]int64{{top, top}}},               // exactly 1
		{1, [][2]int64{{7, 7}, {9, 9}}},           // exactly 2
		{1, [][2]int64{{1, top}, {top - 1, top}}}, // periods up to MaxInt64, sum 1
		{1, [][2]int64{{1, top}, {1, top - 1}}},
		{1, [][2]int64{{1, 3}, {1, 1<<61 - 1}}}, // a denominator between 2^53 and 2^64
		{1, [][2]int64{{primes[0] / 3, primes[0]}, {primes[1] / 5, primes[1]}, {primes[2] / 7, primes[2]}}},
		{1, [][2]int64{{1, 1 << 62}, {1, 3}, {1, 5}}},
		{3, [][2]int64{{10, 20}, {5, 30}}}, // WCETs scaled by speed
		{2, [][2]int64{{1<<61 + 4, 1 << 62}, {1 << 61, 1 << 62}}},
		{top, [][2]int64{{top, 1 << 62}, {1, 3}}},
		{top - 1, [][2]int64{{top, top}}},
		{1, [][2]int64{{1, 6}, {1, 3}, {1, 2}}}, // 1/6 + 1/3 ties 1/2
		{1, [][2]int64{{1, 3}, {1, 3}, {1, 3}}}, // 2/3 plus 1/3 is 1
		{1, nearOne(1)},
		{1, nearOne(-1)},
		// x overflows, y does not.
		{1, [][2]int64{{1, primes[0]}, {1, primes[1]}, {1, primes[2]}, {1, primes[3]}, {1, primes[4]}}},
		// x overflows at its third task, and y lies between x and the
		// uint64 sum of x's first two tasks.
		{1, [][2]int64{{1, primes[0]}, {1, primes[1]}, {1, primes[2]}, {between, 1 << 62}, {1, 1 << 62}}},
		// x and y overflow and tie.
		{1, [][2]int64{{1, primes[0]}, {1, primes[1]}, {1, primes[2]}, {1, primes[0]}, {1, primes[1]}, {1, primes[2]}}},
		// Denominators near 2^64 at speeds near MaxInt64, which scale every
		// WCET to 1: the capacity products need all 192 bits.
		{top, [][2]int64{{1, high[0]}, {1, high[1]}, {1, high[2]}, {1, high[3]}}},
		{top - 1, [][2]int64{{1, high[0]}, {1, high[1]}, {1, high[0]}, {1, high[1]}}},
		{top, [][2]int64{{1, high[0]}, {1, high[1]}, {1, high[1]}, {1, high[0]}}},
		// Fills just below 1 over denominators near 2^64.
		{1, [][2]int64{{high[0] - 2, high[0]}, {1, high[1]}, {high[2] - 2, high[2]}, {1, high[3]}}},
		{2, [][2]int64{{high[0] - 1, high[0]}, {1, high[1]}, {high[0] - 1, high[0]}, {1, high[1]}}},
		// Fills above 1: negative capacities.
		{top, [][2]int64{{top, top}, {1, high[0]}, {top, top}, {1, high[1]}}},
	} {
		f.Add(s.speed, fillBytes(s.pairs...))
	}
	one := big.NewRat(1, 1)
	f.Fuzz(func(t *testing.T, speed int64, raw []byte) {
		ts := fillTasks(speed, raw)
		var all fraction
		all.sum(ts)
		sum := ratFill(ts)
		want, _ := sum.Float64()
		if got, exact := all.report(); exact != sum.RatString() || got != want {
			t.Fatalf("fill of %v = (%v, %s), big.Rat says (%v, %s)", ts, got, exact, want, sum.RatString())
		}
		h := (len(ts) + 1) / 2
		var x, y fraction
		x.sum(ts[:h])
		y.sum(ts[h:])
		bx, by := ratFill(ts[:h]), ratFill(ts[h:])
		if got, want := cmpFills(&x, 0, &y, 0, 1), bx.Cmp(by); got != want {
			t.Fatalf("%v against %v: %d, big.Rat says %d", ts[:h], ts[h:], got, want)
		}
		s := max(speed&math.MaxInt64, 1)
		room := func(fill *big.Rat, s int64) *big.Rat {
			r := new(big.Rat).Sub(one, fill)
			return r.Mul(r, big.NewRat(s, 1))
		}
		for _, sy := range []int64{1, max(s-1, 1)} {
			if got, want := cmpRooms(&x, s, &y, sy), room(bx, s).Cmp(room(by, sy)); got != want {
				t.Fatalf("room of %v at speed %d against %v at %d: %d, big.Rat says %d", ts[:h], s, ts[h:], sy, got, want)
			}
		}
		if h == len(ts) {
			return
		}
		c, d, cy := ts[h].WCET, ts[h].Period, ts[len(ts)-1].WCET
		gx := new(big.Rat).Add(bx, big.NewRat(c, d))
		if got, want := cmpFills(&x, c, &fraction{q: 1}, d, d), gx.Cmp(one); got != want {
			t.Fatalf("%v plus %d/%d against 1: %d, big.Rat says %d", ts[:h], c, d, got, want)
		}
		gy := new(big.Rat).Add(by, big.NewRat(cy, d))
		if got, want := cmpFills(&x, c, &y, cy, d), gx.Cmp(gy); got != want {
			t.Fatalf("%v plus %d/%d against %v plus %d/%d: %d, big.Rat says %d", ts[:h], c, d, ts[h:], cy, d, got, want)
		}
	})
}

// TestCmpRoomsAllocs: worst-fit's exact comparison across speeds stays
// off math/big while both fills fit a uint64 fraction.
func TestCmpRoomsAllocs(t *testing.T) {
	var x, y fraction
	x.sum(model.TaskSet{{WCET: 1, Period: 6}, {WCET: 1, Period: 3}})
	y.sum(model.TaskSet{{WCET: 1, Period: 2}})
	if c := cmpRooms(&x, 2, &y, 1); c != 1 {
		t.Fatalf("2·(1−1/2) against 1·(1−1/2): %d, want 1", c)
	}
	if n := testing.AllocsPerRun(100, func() { cmpRooms(&x, 2, &y, 1) }); n != 0 {
		t.Errorf("cmpRooms allocates %v times per call, want 0", n)
	}
}
