package partition

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/demand"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestNextPicksInStableSortOrder: next picks the best remaining candidate
// by a scan, and the one after it only once the first is taken. The
// picks must come in the order slices.SortStableFunc gives the same
// candidates under cmpRank. The bins are filled with tasks over periods
// 3, 6, 9 and 18 (equal fills built from different terms, whose brackets
// overlap) and a few prime periods, on platforms of equal and of mixed
// speeds, so the rankings meet exact ties, overlapping brackets and
// comparisons across speeds.
func TestNextPicksInStableSortOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := &placer{scratch: demand.NewScratch()}
	analyzer := engine.MustGet("cascade")
	periods := []int64{3, 6, 9, 18, 3, 6, 9, 18, 7, 1009}
	var ties, overlaps, mixed int
	for round := range 600 {
		m := 2 + rng.Intn(11)
		procs := make([]workload.Processor, m)
		if round%2 == 1 {
			for j := range procs {
				procs[j].Speed = 1 + rng.Int63n(3)
			}
		}
		tasks := make([]workload.PartitionedTask, 1+rng.Intn(3*m))
		for k := range tasks {
			period := periods[rng.Intn(len(periods))]
			wcet := 1 + rng.Int63n(max(period/3, 1))
			tasks[k] = task("", wcet, period, period)
		}
		wl := workload.NewPartitioned(procs, tasks)
		p.init(wl, analyzer, Config{})
		p.reset()
		// Fill the bins without trials: every task but the last goes to a
		// random bin, growing its bracket as the gate would.
		last := len(tasks) - 1
		for ti := range last {
			j := rng.Intn(m)
			b := &p.bins[j]
			st := scaledTask(tasks[ti].Task, b.speed)
			b.grown = b.util.Plus(numeric.UtilSum{}.Add(st.WCET, st.Period))
			p.admit(j, ti, st, analysis{})
		}
		at := &wl.PartTasks[last]
		p.candidates(at)
		cands := slices.Clone(p.cands)
		for _, a := range cands {
			for _, b := range cands {
				x, y := &p.bins[a], &p.bins[b]
				if a < b && x.speed != y.speed {
					mixed++
				}
				if _, ok := x.util.Cmp(y.util); a < b && !ok {
					overlaps++
				}
			}
		}
		for _, h := range AllHeuristics() {
			want := slices.Clone(cands)
			slices.SortStableFunc(want, func(a, b int) int { return p.cmpRank(h, &at.Task, a, b) })
			for i := 1; i < len(want); i++ {
				if p.cmpRank(h, &at.Task, want[i-1], want[i]) == 0 {
					ties++
				}
			}
			p.cands = slices.Clone(cands)
			var got []int
			for len(p.cands) > 0 {
				got = append(got, p.next(h, &at.Task))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("round %d, %s: picks %v, stable sort %v (speeds %v)", round, h, got, want, procs)
			}
		}
	}
	if ties == 0 || overlaps == 0 || mixed == 0 {
		t.Fatalf("weak corpus: %d ties, %d overlapping brackets, %d mixed-speed pairs", ties, overlaps, mixed)
	}
	t.Logf("%d ties, %d overlapping brackets, %d mixed-speed pairs", ties, overlaps, mixed)
}

// divisors2520 are the periods of the simulated platforms: every bin's
// hyperperiod divides 2520, so each simulation stays short.
var divisors2520 = func() []int64 {
	var out []int64
	for d := int64(2); d <= 2520; d++ {
		if 2520%d == 0 {
			out = append(out, d)
		}
	}
	return out
}()

// TestPlacedBinsMeetDeadlinesInSimulation referees the placements with
// the EDF simulator. Small platforms with mixed speeds and affinities,
// periods dividing 2520, are placed under each heuristic; every bin of
// every feasible placement, scaled as BinTasks scales it, runs
// synchronously on one processor up to its hyperperiod plus its largest
// deadline, which covers every job of the periodic schedule. No bin may
// miss a deadline.
func TestPlacedBinsMeetDeadlinesInSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var placements, bins, scaledBins, multi int
	for round := range 1000 {
		m := 1 + rng.Intn(4)
		procs := make([]workload.Processor, m)
		for j := range procs {
			if round%2 == 1 {
				procs[j].Speed = 1 + rng.Int63n(3)
			}
		}
		tasks := make([]workload.PartitionedTask, 1+rng.Intn(4*m))
		for k := range tasks {
			period := divisors2520[rng.Intn(len(divisors2520))]
			wcet := 1 + rng.Int63n(max(period*4/10, 1))
			deadline := wcet + rng.Int63n(period+period/4-wcet+1)
			tasks[k] = task("", wcet, deadline, period)
			if rng.Intn(4) == 0 {
				tasks[k].Affinity = []int{rng.Intn(m)}
			}
		}
		wl := workload.NewPartitioned(procs, tasks)
		for _, h := range AllHeuristics() {
			pl, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{h}})
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, h, err)
			}
			if !pl.Feasible {
				continue
			}
			placements++
			for _, r := range pl.Processors {
				if len(r.Tasks) == 0 {
					continue
				}
				bin := BinTasks(wl, r.Index, r.Tasks).Synchronous()
				rep, err := sim.Run(bin, sim.Options{Horizon: hyperperiod(bin) + bin.MaxDeadline()})
				if err != nil {
					t.Fatalf("round %d, %s, processor %d: %v", round, h, r.Index, err)
				}
				if rep.Missed {
					t.Fatalf("round %d, %s: processor %d (%s) misses task %d's deadline at %d: %v",
						round, h, r.Index, r.Verdict, rep.MissTask, rep.MissTime, bin)
				}
				bins++
				if len(bin) > 1 {
					multi++
				}
				if r.Speed > 1 {
					scaledBins++
				}
			}
		}
	}
	if placements < 1000 || multi < bins/2 || scaledBins == 0 {
		t.Fatalf("weak corpus: %d feasible placements, %d bins, %d with several tasks, %d on faster processors",
			placements, bins, multi, scaledBins)
	}
	t.Logf("%d feasible placements, %d bins simulated, %d with several tasks, %d on faster processors",
		placements, bins, multi, scaledBins)
}

// hyperperiod is the least common multiple of the set's periods.
func hyperperiod(ts model.TaskSet) int64 {
	h := int64(1)
	for _, task := range ts {
		h, _ = numeric.LCM(h, task.Period)
	}
	return h
}
