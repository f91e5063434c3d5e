package partition

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// benchWorkload draws a deterministic m-processor workload at ~55% load
// per processor — comfortably placeable under every heuristic, so the
// benchmark measures placement cost, not failure trails.
func benchWorkload(m int) workload.Workload {
	rng := rand.New(rand.NewSource(int64(100 + m)))
	procs := make([]workload.Processor, m)
	tasks := make([]workload.PartitionedTask, 3*m)
	periods := []int64{10, 20, 40, 50, 80, 100}
	for i := range tasks {
		period := periods[rng.Intn(len(periods))] * (1 + rng.Int63n(4))
		wcet := max(period*18/100, 1)
		deadline := period - period/10
		tasks[i] = workload.PartitionedTask{
			Task: model.Task{WCET: wcet, Deadline: deadline, Period: period},
		}
	}
	return workload.NewPartitioned(procs, tasks)
}

// BenchmarkPlace measures placement latency and the bin verdicts
// consulted per placement across platform sizes and heuristics. The
// cache persists across iterations, so the final bins are served from it
// as in steady-state serving, where the sharded LRU (or the fleet, via
// fingerprint routing) has seen them before; trials never consult it.
func BenchmarkPlace(b *testing.B) {
	for _, m := range []int{2, 4, 8, 16} {
		wl := benchWorkload(m)
		for _, h := range AllHeuristics() {
			b.Run(fmt.Sprintf("m%d/%s", m, h), func(b *testing.B) {
				cache := newMapCache()
				cfg := Config{Cache: cache, Heuristics: []Heuristic{h}}
				var checks, ops uint64
				b.ReportAllocs()
				for b.Loop() {
					pl, err := Place(context.Background(), wl, cfg)
					if err != nil {
						b.Fatal(err)
					}
					if !pl.Feasible {
						b.Fatalf("bench workload m=%d infeasible under %s", m, h)
					}
					checks += pl.Stats.BinChecks
					ops++
				}
				b.ReportMetric(float64(checks)/float64(ops), "checks/op")
			})
		}
	}
}

// mixPlatforms is the size of BenchmarkPlaceMix's corpus: ten platforms
// each of 4, 8 and 16 processors, six of them overloaded.
const mixPlatforms = 30

// TestPlaceAllocs pins the allocations of one cold placement, the second
// platform of BenchmarkPlaceMix's corpus (8 processors, 30 tasks; first
// fit fails, worst-fit places them): the failed attempt's trail, the
// result's own slices and strings, one fingerprint per final bin and the
// re-proof batch of the bins the certificate decided. Final bins their
// last trial proved are not analyzed again, fills are reported without
// math/big, and no chunk plan is built.
func TestPlaceAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(1))
	coldPlatform(rng, 0)
	wl := coldPlatform(rng, 1)
	cfg := Config{Workers: 1}
	const bound = 57
	n := testing.AllocsPerRun(100, func() {
		if pl, err := Place(context.Background(), wl, cfg); err != nil || !pl.Feasible {
			t.Fatalf("placement: feasible %v, %v", pl.Feasible, err)
		}
	})
	if n > bound {
		t.Errorf("Place allocates %v times per call, want at most %d", n, bound)
	}
}

// TestPlaceGridAllocs pins the allocations of BenchmarkPlace's m16
// platform under worst-fit and balance without a cache. Its grid periods
// give many bins equal fills whose brackets overlap, so the rankings
// compare exact fills hundreds of times per placement: that path must
// not allocate.
func TestPlaceGridAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	wl := benchWorkload(16)
	const bound = 96
	for _, h := range []Heuristic{WorstFit, Balance} {
		cfg := Config{Workers: 1, Heuristics: []Heuristic{h}}
		n := testing.AllocsPerRun(100, func() {
			if pl, err := Place(context.Background(), wl, cfg); err != nil || !pl.Feasible {
				t.Fatalf("%s placement: feasible %v, %v", h, pl.Feasible, err)
			}
		})
		if n > bound {
			t.Errorf("%s: Place allocates %v times per call, want at most %d", h, n, bound)
		}
	}
}

// BenchmarkPlaceMix measures one pass over a fixed seeded corpus of the
// partition-cold shape (see coldPlatform): distinct platforms without a
// cache, as cold requests see them, every heuristic in order, with the
// failure trails of overloaded and unplaceable platforms. One op places
// the whole corpus; checks/op counts its bin verdicts.
func BenchmarkPlaceMix(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	wls := make([]workload.Workload, mixPlatforms)
	for i := range wls {
		wls[i] = coldPlatform(rng, i)
	}
	cfg := Config{Workers: 1}
	var checks, ops uint64
	b.ReportAllocs()
	for b.Loop() {
		for _, wl := range wls {
			pl, err := Place(context.Background(), wl, cfg)
			if err != nil {
				b.Fatal(err)
			}
			checks += pl.Stats.BinChecks
		}
		ops++
	}
	b.ReportMetric(float64(checks)/float64(ops), "checks/op")
}
