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

// FuzzFillVsBigRat compares fill, the fill of a bin's scaled tasks as a
// reduced uint64 fraction, with the big.Rat sum of the same fractions:
// the same RatString and the same Float64, on every input, including
// those whose fraction overflows and falls back to math/big.
func FuzzFillVsBigRat(f *testing.F) {
	const top = math.MaxInt64
	primes := primesAbove(1<<31, 3) // pairwise coprime, product above 2^64
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
	} {
		f.Add(s.speed, fillBytes(s.pairs...))
	}
	f.Fuzz(func(t *testing.T, speed int64, raw []byte) {
		ts := fillTasks(speed, raw)
		var sum, term big.Rat
		for _, task := range ts {
			sum.Add(&sum, term.SetFrac64(task.WCET, task.Period))
		}
		want, _ := sum.Float64()
		got, exact := fill(ts)
		if exact != sum.RatString() || got != want {
			t.Fatalf("fill of %v = (%v, %s), big.Rat says (%v, %s)", ts, got, exact, want, sum.RatString())
		}
	})
}
