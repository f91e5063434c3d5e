package numeric

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// The denominator alphabet of the plan-rebuild checks: denominators that
// fail a build (non-positive or above the cap), denominator 1, a grid and
// small coprimes that share chunks, the cap itself, and 40 primes above
// 2^31 of which no two share a chunk, so keys can need more than
// MaxChunks chunks.
var (
	badDens   = []int64{0, -5, chunkDenCap + 1, math.MaxInt64}
	smallDens = []int64{1, 10, 20, 50, 1000, 3, 7, 12, 1 << 40, chunkDenCap}
	primeDens = func() []int64 {
		var out []int64
		for v := int64(1<<31) + 11; len(out) < 40; v += 2 {
			if big.NewInt(v).ProbablyPrime(20) {
				out = append(out, v)
			}
		}
		return out
	}()
)

// pickDen maps a byte to a denominator: a failing one for 6 of 256
// values, a small one for 84 and a large prime for the rest.
func pickDen(b byte) int64 {
	switch {
	case b < 6:
		return badDens[b%4]
	case b < 90:
		return smallDens[b%10]
	}
	return primeDens[b%40]
}

// checkRebuilds drives one Plan through the key sequence data encodes and
// checks every step against a fresh Build of the same key: the build
// result, the chunk count and the chunk denominators in order. Each step
// takes three bytes and then as many denominator bytes as it appends: how
// much of the previous key to keep, whether to pass Rebuild the whole
// shared prefix or only the kept part, and the number of entries to
// append. It returns how many steps built keys that fail and keys that
// need more than half the chunk cap.
func checkRebuilds(t *testing.T, data []byte) (failed, wide int) {
	t.Helper()
	var p Plan
	var key []int64
	for len(data) >= 3 {
		keep := int(data[0]) % (len(key) + 1)
		whole := data[1]&1 == 1
		add := int(data[2]) % 48
		data = data[3:]
		next := slices.Clone(key[:keep])
		for ; add > 0 && len(data) > 0; add-- {
			next = append(next, pickDen(data[0]))
			data = data[1:]
		}
		shared := keep
		if whole {
			shared = 0
			for shared < len(next) && shared < len(key) && next[shared] == key[shared] {
				shared++
			}
		}
		ok := p.Rebuild(next, shared)
		var fresh Plan
		wantOK := fresh.Build(next)
		if ok != wantOK || p.Chunks() != fresh.Chunks() || !slices.Equal(p.dens[:p.n], fresh.dens[:fresh.n]) {
			t.Fatalf("Rebuild(%v, %d) after %v: ok %v, %d chunks %v; Build: ok %v, %d chunks %v",
				next, shared, key, ok, p.Chunks(), p.dens[:p.n], wantOK, fresh.Chunks(), fresh.dens[:fresh.n])
		}
		if p.Promotions() != 0 {
			t.Fatalf("Rebuild kept %d promotions", p.Promotions())
		}
		p.promotions++ // the next rebuild must restart the tally
		key = next
		if !ok {
			failed++
		} else if p.Chunks() > MaxChunks/2 {
			wide++
		}
	}
	return failed, wide
}

// TestPlanRebuildMatchesBuild replays random key sequences that share
// prefixes: after every step the rebuilt plan must equal a fresh Build.
func TestPlanRebuildMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var failed, wide int
	for range 300 {
		data := make([]byte, 40+rng.Intn(400))
		rng.Read(data)
		f, w := checkRebuilds(t, data)
		failed += f
		wide += w
	}
	// The sequences must reach both shapes, or the property is vacuous
	// where it matters.
	if failed == 0 || wide == 0 {
		t.Fatalf("%d failing and %d wide keys: the sequences miss a shape", failed, wide)
	}
	t.Logf("%d failing and %d wide keys", failed, wide)
}

// FuzzPlanRebuild is TestPlanRebuildMatchesBuild on fuzzed key sequences.
func FuzzPlanRebuild(f *testing.F) {
	f.Add([]byte{0, 0, 5, 2, 3, 4, 5, 6})
	f.Add([]byte{0, 1, 40, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99, 100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115, 116, 117, 118, 119, 120, 121, 122, 123, 124, 125, 126, 127, 128, 129, 20, 1, 3, 200, 201, 202})
	f.Add([]byte{0, 0, 4, 2, 13, 3, 4, 1, 1, 2, 5, 6, 1, 0, 1, 12})
	f.Add([]byte{0, 1, 3, 9, 10, 11, 2, 1, 2, 1, 0, 2, 2, 14, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Every step checks against a fresh Build of the whole key, so the
		// cost grows with the square of the input: 512 bytes reach keys
		// far past the chunk cap and keep each input fast.
		checkRebuilds(t, data[:min(len(data), 512)])
	})
}
