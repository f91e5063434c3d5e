package partition

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// refPlace is the reference placement: Place's task order, affinity
// filter, utilization gate and heuristic rankings with every fill a
// big.Rat, and the analyzer run on every trial instead of the
// incremental certificate.
func refPlace(wl workload.Workload, cfg Config) Placement {
	analyzer := engine.MustGet(cfg.Analyzer)
	hs := cfg.Heuristics
	if len(hs) == 0 {
		hs = AllHeuristics()
	}
	order := make([]int, len(wl.PartTasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return wl.PartTasks[order[a]].Utilization().Cmp(wl.PartTasks[order[b]].Utilization()) > 0
	})
	one := big.NewRat(1, 1)
	m := len(wl.Processors)
	var out Placement
	for _, h := range hs {
		fills := make([]*big.Rat, m)
		bins := make([][]int, m)
		for j := range fills {
			fills[j] = new(big.Rat)
		}
		asg := make([]int, len(wl.PartTasks))
		var failed *Attempt
		for placed, ti := range order {
			task := wl.PartTasks[ti]
			reasons := make([]string, m)
			grown := make([]*big.Rat, m)
			var cands []int
			for j := range m {
				if !task.Allows(j) {
					reasons[j] = "affinity"
					continue
				}
				st := BinTasks(wl, j, []int{ti})[0]
				grown[j] = new(big.Rat).Add(fills[j], big.NewRat(st.WCET, st.Period))
				if grown[j].Cmp(one) > 0 {
					reasons[j] = "gate"
					continue
				}
				cands = append(cands, j)
			}
			speed := func(j int) *big.Rat { return big.NewRat(wl.Processors[j].EffectiveSpeed(), 1) }
			switch h {
			case WorstFit:
				rem := func(j int) *big.Rat {
					r := new(big.Rat).Sub(one, fills[j])
					return r.Mul(r, speed(j))
				}
				sort.SliceStable(cands, func(a, b int) bool { return rem(cands[a]).Cmp(rem(cands[b])) > 0 })
			case Balance:
				sort.SliceStable(cands, func(a, b int) bool { return grown[cands[a]].Cmp(grown[cands[b]]) < 0 })
			}
			won := false
			for _, j := range cands {
				bin := BinTasks(wl, j, append(slices.Clone(bins[j]), ti))
				if v := analyzer.Analyze(bin, cfg.Options).Verdict; v != core.Feasible {
					reasons[j] = v.String()
					continue
				}
				bins[j] = append(bins[j], ti)
				fills[j] = grown[j]
				asg[ti] = j
				won = true
				break
			}
			if !won {
				failed = &Attempt{Heuristic: h, Placed: placed, FailedTask: ti, FailedTaskName: task.Name}
				for j, r := range reasons {
					failed.Rejections = append(failed.Rejections, Rejection{Processor: j, Reason: r})
				}
				break
			}
		}
		if failed != nil {
			out.Attempts = append(out.Attempts, *failed)
			continue
		}
		out.Feasible, out.Heuristic, out.Assignment = true, h, asg
		for j := range m {
			r := ProcessorReport{Index: j, Verdict: core.Feasible.String(), UtilizationExact: fills[j].RatString()}
			r.Utilization, _ = fills[j].Float64()
			if len(bins[j]) > 0 {
				r.Tasks = bins[j]
				r.Verdict = analyzer.Analyze(BinTasks(wl, j, bins[j]), cfg.Options).Verdict.String()
			}
			out.Processors = append(out.Processors, r)
		}
		return out
	}
	best := 0
	for i, a := range out.Attempts {
		if a.Placed > out.Attempts[best].Placed {
			best = i
		}
	}
	ce := out.Attempts[best]
	out.Counterexample = &ce
	return out
}

// checkAgainstRef places wl with Place and refPlace and requires the same
// decisions: the winner, the assignment, every failed trail with its
// rejection reasons, the counterexample, and each bin's tasks, fill and
// verdict.
func checkAgainstRef(t *testing.T, what string, wl workload.Workload, cfg Config) Placement {
	t.Helper()
	got, err := Place(context.Background(), wl, cfg)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want := refPlace(wl, cfg)
	if got.Feasible != want.Feasible || got.Heuristic != want.Heuristic || !reflect.DeepEqual(got.Assignment, want.Assignment) {
		t.Fatalf("%s: placed (%v, %q, %v), reference (%v, %q, %v)", what,
			got.Feasible, got.Heuristic, got.Assignment, want.Feasible, want.Heuristic, want.Assignment)
	}
	if !reflect.DeepEqual(got.Attempts, want.Attempts) || !reflect.DeepEqual(got.Counterexample, want.Counterexample) {
		t.Fatalf("%s: attempts %+v (counterexample %+v), reference %+v (%+v)", what,
			got.Attempts, got.Counterexample, want.Attempts, want.Counterexample)
	}
	if len(got.Processors) != len(want.Processors) {
		t.Fatalf("%s: %d processor reports, reference %d", what, len(got.Processors), len(want.Processors))
	}
	for j, g := range got.Processors {
		w := want.Processors[j]
		if !reflect.DeepEqual(g.Tasks, w.Tasks) || g.Utilization != w.Utilization ||
			g.UtilizationExact != w.UtilizationExact || g.Verdict != w.Verdict {
			t.Fatalf("%s: processor %d reports (%v, %v, %s, %s), reference (%v, %v, %s, %s)", what, j,
				g.Tasks, g.Utilization, g.UtilizationExact, g.Verdict, w.Tasks, w.Utilization, w.UtilizationExact, w.Verdict)
		}
	}
	return got
}

// gridPlatform draws a benchWorkload-style platform: 2–8 processors,
// mixed speeds on every other one, 2m–4m tasks whose periods come from a
// small harmonic grid, so fills tie exactly and often.
func gridPlatform(rng *rand.Rand, i int) workload.Workload {
	m := 2 + rng.Intn(7)
	procs := make([]workload.Processor, m)
	if i%2 == 1 {
		for j := range procs {
			procs[j].Speed = 1 + rng.Int63n(3)
		}
	}
	periods := []int64{3, 6, 10, 20, 40, 50, 80, 100}
	tasks := make([]workload.PartitionedTask, 2*m+rng.Intn(2*m+1))
	for k := range tasks {
		period := periods[rng.Intn(len(periods))] * (1 + rng.Int63n(4))
		wcet := max(period*(5+rng.Int63n(40))/100, 1)
		tasks[k] = task("", wcet, period-rng.Int63n(period-wcet+1)/4, period)
		if rng.Intn(8) == 0 {
			tasks[k].Affinity = []int{rng.Intn(m)}
		}
	}
	return workload.NewPartitioned(procs, tasks)
}

// primePlatform draws a platform whose periods no chunk plan covers:
// more pairwise-coprime periods above 2^31 than numeric.MaxChunks, so
// a register walk over its bins would run on math/big, and most bins'
// exact fills overflow a uint64 fraction. Deadlines equal periods, which
// keeps each analyzer run to its utilization check.
func primePlatform(rng *rand.Rand, primes []int64) workload.Workload {
	m := 4 + rng.Intn(5)
	procs := make([]workload.Processor, m)
	for j := range procs {
		procs[j].Speed = 1 + rng.Int63n(2)
	}
	tasks := make([]workload.PartitionedTask, len(primes))
	for k, p := range primes {
		wcet := p * (5 + rng.Int63n(25)) / 100
		tasks[k] = task("", wcet, p, p)
	}
	rng.Shuffle(len(tasks), func(a, b int) { tasks[a], tasks[b] = tasks[b], tasks[a] })
	return workload.NewPartitioned(procs, tasks)
}

// primesAbove returns the first n primes above lo.
func primesAbove(lo int64, n int) []int64 {
	var out []int64
	for v := lo | 1; len(out) < n; v += 2 {
		if big.NewInt(v).ProbablyPrime(20) {
			out = append(out, v)
		}
	}
	return out
}

// TestPlaceMatchesBigRatReference: Place decides the gate and the
// rankings on fixed-point brackets and falls back to exact fills only
// where a bracket cannot decide; refPlace keeps every fill in
// big.Rat and runs the analyzer on every trial. Both must place 2,000
// platforms alike: the partition-cold shape, small random platforms,
// harmonic grids with mixed speeds, and prime periods no chunk plan
// covers.
func TestPlaceMatchesBigRatReference(t *testing.T) {
	cold := rand.New(rand.NewSource(11))
	small := rand.New(rand.NewSource(12))
	grid := rand.New(rand.NewSource(13))
	prime := rand.New(rand.NewSource(14))
	primes := primesAbove(1<<31, numeric.MaxChunks+4)
	var plan numeric.Plan
	if plan.Build(primes) {
		t.Fatal("the prime periods fit a chunk plan")
	}
	feasible, failed := 0, 0
	for i := range 2000 {
		var wl workload.Workload
		var what string
		switch {
		case i < 600:
			wl, what = coldPlatform(cold, i), "cold"
		case i < 1400:
			wl, what = randomPartitioned(small), "random"
		case i < 1800:
			wl, what = gridPlatform(grid, i), "grid"
		default:
			wl, what = primePlatform(prime, primes), "prime"
		}
		cfg := Config{Analyzer: "cascade"}
		if i%7 == 3 {
			cfg.Heuristics = []Heuristic{AllHeuristics()[i%3], AllHeuristics()[(i+1)%3]}
		}
		pl := checkAgainstRef(t, what, wl, cfg)
		if pl.Feasible {
			feasible++
		}
		failed += len(pl.Attempts)
	}
	if feasible == 0 || failed == 0 {
		t.Fatalf("inputs lack feasible (%d) or failed (%d) placements", feasible, failed)
	}
	t.Logf("%d/2000 platforms placed, %d failed heuristic trails", feasible, failed)
}

// TestPlacePrimeWithoutPromotions: no chunk plan covers the periods of
// primePlatform, so a register walk over its bins would promote to
// math/big. The analyzer runs stop at their utilization check, decided
// on a bracket, and the placement's exact fills are fractions of their
// own that count no promotions, so the placements report none.
func TestPlacePrimeWithoutPromotions(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	primes := primesAbove(1<<31, numeric.MaxChunks+4)
	for i := range 100 {
		wl := primePlatform(rng, primes)
		pl, err := Place(context.Background(), wl, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if pl.Stats.Promotions != 0 {
			t.Fatalf("platform %d: %d promotions, want 0", i, pl.Stats.Promotions)
		}
	}
}

// nearOnePeriods returns three pairwise-coprime periods just above lo
// and WCETs whose utilizations sum to exactly 1 + sign/(p·q·r). Above
// 2^45 that is within 2^-135 of 1: a grown fill the bracket cannot place
// against 1. The WCETs are modular inverses, which fix the sum to
// k ± 1/(pqr); the third prime is advanced until k is 1.
func nearOnePeriods(lo, sign int64) (wcets, periods [3]int64) {
	ps := primesAbove(lo, 2)
	for v := ps[1] + 2; ; v += 2 {
		if !big.NewInt(v).ProbablyPrime(20) {
			continue
		}
		periods = [3]int64{ps[0], ps[1], v}
		sum := new(big.Rat)
		for i := range periods {
			others := big.NewInt(1)
			for j := range periods {
				if j != i {
					others.Mul(others, big.NewInt(periods[j]))
				}
			}
			d := big.NewInt(periods[i])
			inv := new(big.Int).ModInverse(others.Mod(others, d), d)
			if sign < 0 {
				inv.Sub(d, inv)
			}
			wcets[i] = inv.Int64()
			sum.Add(sum, big.NewRat(wcets[i], periods[i]))
		}
		if sum.Cmp(big.NewRat(3, 2)) < 0 {
			return wcets, periods
		}
	}
}

// TestPlaceNearTiesMatchReference forces every exact fallback: grown
// fills of exactly 1 and within 2^-128 of 1 at the gate (and the
// certificate's strictly-below-1 test), fills that tie exactly from
// different terms, and fills within 2^-128 of each other, in the
// equal-speed rankings and in balance's grown fills across speeds, and
// remaining capacities speed·(1−fill) that tie exactly or differ by less
// than worst-fit's estimate can tell across speeds, speeds near
// MaxInt64 included. Each shape first checks that the brackets, or the
// estimates, indeed cannot decide.
func TestPlaceNearTiesMatchReference(t *testing.T) {
	type term struct{ c, t int64 }
	sum := func(terms ...term) numeric.UtilSum {
		var u numeric.UtilSum
		for _, tm := range terms {
			u = u.Add(tm.c, tm.t)
		}
		return u
	}
	undecided := func(what string, a, b numeric.UtilSum) {
		t.Helper()
		if _, ok := a.Cmp(b); ok {
			t.Fatalf("%s: the brackets decide", what)
		}
	}
	one := sum(term{1, 1})
	undecided("1/3+1/3+1/3 against 1", sum(term{1, 3}, term{1, 3}, term{1, 3}), one)
	undecided("1/6+1/3 against 1/2", sum(term{1, 6}, term{1, 3}), sum(term{1, 2}))
	undecided("1/3+1/6+1/10 against 1/2+1/10", sum(term{1, 3}, term{1, 6}, term{1, 10}), sum(term{1, 2}, term{1, 10}))
	// room is a bin of the given speed and fill as worst-fit sees it.
	room := func(speed int64, fill numeric.UtilSum) *bin {
		b := &bin{speed: speed, util: fill}
		b.setRoom()
		return b
	}
	roomUndecided := func(what string, x, y *bin) {
		t.Helper()
		if _, ok := cmpRoom(x, y); ok {
			t.Fatalf("%s: the capacity estimates decide", what)
		}
	}
	const top = math.MaxInt64
	roomUndecided("2·(1−1/2) against 1·(1−0)", room(2, sum(term{1, 2})), room(1, sum()))
	roomUndecided("2·(1−(1/2−2^-61)) against 1·(1−0)", room(2, sum(term{1<<60 - 1, 1 << 61})), room(1, sum()))
	roomUndecided("2·(1−(1/2+2^-61)) against 1·(1−0)", room(2, sum(term{1<<60 + 1, 1 << 61})), room(1, sum()))
	roomUndecided("MaxInt64−1 against MaxInt64", room(top-1, sum()), room(top, sum()))
	roomUndecided("MaxInt64·(1−2^-62) against MaxInt64−1", room(top, sum(term{1, 1 << 62})), room(top-1, sum()))
	shapes := map[string]workload.Workload{
		// The third task grows the bin to exactly 1: the gate and the
		// certificate precondition fall back. In thirds-over a fourth
		// task then fits nowhere.
		"thirds": workload.NewPartitioned([]workload.Processor{{}}, []workload.PartitionedTask{
			task("a", 1, 3, 3), task("b", 1, 3, 3), task("c", 1, 3, 3),
		}),
		"thirds-over": workload.NewPartitioned([]workload.Processor{{}, {}}, []workload.PartitionedTask{
			task("a", 1, 3, 3, 0), task("b", 1, 3, 3, 0), task("c", 1, 3, 3, 0), task("d", 1, 9, 9, 0),
		}),
		// Processor 0 holds 1/3+1/6, processor 1 holds 1/2: the free task
		// sees two equal fills, which the exact fills tie so index 0
		// wins under worst-fit and balance.
		"sixths": workload.NewPartitioned([]workload.Processor{{}, {}, {}}, []workload.PartitionedTask{
			task("half", 1, 2, 2, 1), task("third", 1, 3, 3, 0), task("sixth", 1, 6, 6, 0),
			task("pin", 9, 10, 10, 2), task("free", 1, 10, 10),
		}),
		// The same fills on processors of speeds 1 and 2: the free task
		// grows both to 3/5, a tie of balance's grown brackets.
		"sixths-speeds": workload.NewPartitioned([]workload.Processor{{}, {Speed: 2}}, []workload.PartitionedTask{
			task("heavy", 10, 10, 10, 1), task("third", 1, 3, 3, 0), task("sixth", 1, 6, 6, 0),
			task("free", 1, 10, 10),
		}),
	}
	// wants holds the processor the free task must land on where the
	// exact order differs from the index order or a tie must go to the
	// lower index.
	type want struct {
		h    Heuristic
		task int
		proc int
	}
	wants := map[string][]want{
		"sixths":        {{WorstFit, 4, 0}, {Balance, 4, 0}},
		"sixths-speeds": {{Balance, 3, 0}},
	}
	// Worst-fit across speeds. A speed-2 processor filled to 1/2 has the
	// remaining capacity 1 of an empty speed-1 one: a tie the lower index
	// wins. Filled to 1/2 ∓ 2^-61 it has 1 ± 2^-60, which no float64
	// estimate near 1 tells from 1; the exact order puts the free task,
	// placed last, on the processor the index order would not. Scaling
	// halves the even WCETs exactly.
	free := task("free", 1, 1<<40, 1<<40)
	shapes["room-tie"] = workload.NewPartitioned([]workload.Processor{{}, {Speed: 2}}, []workload.PartitionedTask{
		task("half", 1<<62, 1<<62, 1<<62, 1), free,
	})
	wants["room-tie"] = []want{{WorstFit, 1, 0}}
	shapes["room-above"] = workload.NewPartitioned([]workload.Processor{{}, {Speed: 2}}, []workload.PartitionedTask{
		task("half", 1<<61-2, 1<<61, 1<<61, 1), free,
	})
	wants["room-above"] = []want{{WorstFit, 1, 1}}
	shapes["room-below"] = workload.NewPartitioned([]workload.Processor{{Speed: 2}, {}}, []workload.PartitionedTask{
		task("quarter", 1<<61, 1<<62, 1<<62, 0), task("quarter+", 1<<61+4, 1<<62, 1<<62, 0), free,
	})
	wants["room-below"] = []want{{WorstFit, 2, 1}}
	// Speeds near MaxInt64 scale every WCET to 1 and convert to the same
	// float64, and two of them overflow an int64 sum. Exactly, processor 2
	// (empty, MaxInt64) has the most room, then processor 0 (empty,
	// MaxInt64−1), then processor 1 (MaxInt64 filled to 1/2^62).
	shapes["room-maxint"] = workload.NewPartitioned([]workload.Processor{{Speed: top - 1}, {Speed: top}, {Speed: top}},
		[]workload.PartitionedTask{task("pinned", 1<<61, 1<<62, 1<<62, 1), free})
	wants["room-maxint"] = []want{{WorstFit, 1, 2}}
	shapes["room-maxint-up"] = workload.NewPartitioned([]workload.Processor{{Speed: top - 1}, {Speed: top}},
		[]workload.PartitionedTask{free})
	wants["room-maxint-up"] = []want{{WorstFit, 0, 1}}
	shapes["room-maxint-down"] = workload.NewPartitioned([]workload.Processor{{Speed: top}, {Speed: top - 1}},
		[]workload.PartitionedTask{free})
	wants["room-maxint-down"] = []want{{WorstFit, 0, 0}}
	pin := func(ts []workload.PartitionedTask, j int) []workload.PartitionedTask {
		out := slices.Clone(ts)
		for i := range out {
			out[i].Affinity = []int{j}
		}
		return out
	}
	for _, sign := range []int64{1, -1} {
		wcets, periods := nearOnePeriods(1<<45, sign)
		var whole, half []workload.PartitionedTask
		var wholeSum, halfSum numeric.UtilSum
		for i := range wcets {
			whole = append(whole, task("", wcets[i], periods[i], periods[i]))
			half = append(half, task("", wcets[i], 2*periods[i], 2*periods[i]))
			wholeSum = wholeSum.Add(wcets[i], periods[i])
			halfSum = halfSum.Add(wcets[i], 2*periods[i])
		}
		undecided(fmt.Sprintf("1%+d/(pqr) against 1", sign), wholeSum, one)
		undecided(fmt.Sprintf("(1%+d/(pqr))/2 against 1/2", sign), halfSum, sum(term{1, 2}))
		name := "above"
		if sign < 0 {
			name = "below"
		}
		shapes["near-one-"+name] = workload.NewPartitioned([]workload.Processor{{}}, whole)
		// Processor 0 fills to 1/2 ± 1/(2pqr), processor 1 to 1/2, and
		// the free task goes to the smaller fill: processor 1 above,
		// processor 0 below. Across speeds balance compares the grown
		// fills, both raised by 2^-40.
		smaller := 0
		if sign > 0 {
			smaller = 1
		}
		free := task("free", 1, 1<<40, 1<<40) // placed last
		tasks := append(pin(half, 0), task("half", 1, 2, 2, 1), free)
		shapes["near-half-"+name] = workload.NewPartitioned([]workload.Processor{{}, {}}, tasks)
		wants["near-half-"+name] = []want{{WorstFit, 4, smaller}, {Balance, 4, smaller}}
		tasks = append(pin(half, 0), task("heavy", 2, 2, 2, 1), free)
		shapes["near-half-speeds-"+name] = workload.NewPartitioned([]workload.Processor{{}, {Speed: 2}}, tasks)
		wants["near-half-speeds-"+name] = []want{{Balance, 4, smaller}}
	}
	for name, wl := range shapes {
		for _, h := range AllHeuristics() {
			pl := checkAgainstRef(t, name+"/"+string(h), wl, Config{Analyzer: "cascade", Heuristics: []Heuristic{h}})
			for _, w := range wants[name] {
				if w.h == h && (!pl.Feasible || pl.Assignment[w.task] != w.proc) {
					t.Errorf("%s/%s: task %d placed on %v, want processor %d", name, h, w.task, pl.Assignment, w.proc)
				}
			}
		}
	}
	if pl := checkAgainstRef(t, "near-one-above", shapes["near-one-above"], Config{Analyzer: "cascade"}); pl.Feasible {
		t.Error("near-one-above: a fill above 1 was placed")
	}
	if pl := checkAgainstRef(t, "near-one-below", shapes["near-one-below"], Config{Analyzer: "cascade"}); !pl.Feasible {
		t.Error("near-one-below: a fill below 1 was not placed")
	}
}
