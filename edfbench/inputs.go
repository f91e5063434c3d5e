package main

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// Input streams: every workload draws its timed inputs and its warm-up
// corpus from separate generators, so the warm-up never touches a timed
// input.
const (
	streamTimed = iota + 1
	streamWarm
)

// warmCorpusSeed seeds the warm-up corpora of the cold workloads in place
// of --seed, so every run's set-up does the same work and setup_s varies
// only with the program and the machine. Their costs are heavy-tailed: with
// per-seed corpora, session-churn's set-up (ten scenarios) differed by 40%
// between two seeds. Fleet-hot's hot set is also its timed inputs and
// stays per-seed.
const warmCorpusSeed = 0

func rngFor(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream*7919))
}

// gridPeriods is the round period grid of the grid-shaped sets, 10²–10⁴.
var gridPeriods = []int64{100, 200, 500, 1000, 2000, 5000, 10000}

// sporadicSet draws one analysis input: n in [10, 40] tasks at total
// utilization in [0.85, 0.99], constrained deadlines, and periods either
// from the round grid (spread=false) or log-uniform over four decades,
// 10²–10⁶, whose lcms overflow int64 and exercise the chunked exact
// arithmetic (spread=true).
func sporadicSet(rng *rand.Rand, spread bool) model.TaskSet {
	n := 10 + rng.Intn(31)
	u := 0.85 + 0.14*rng.Float64()
	us := taskgen.UUniFast(n, u, rng)
	ts := make(model.TaskSet, n)
	for i, ui := range us {
		var t int64
		if spread {
			t = int64(math.Round(math.Pow(10, 2+4*rng.Float64())))
		} else {
			t = gridPeriods[rng.Intn(len(gridPeriods))]
		}
		c := min(max(int64(math.Round(ui*float64(t))), 1), t)
		// Deadlines shrink by up to 30% of the slack T−C.
		d := t - int64(0.3*rng.Float64()*float64(t-c))
		ts[i] = model.Task{WCET: c, Deadline: max(d, c), Period: t}
	}
	return ts
}

// sporadicSets draws n sets alternating grid and spread shapes, so each
// shape is exactly half of every run.
func sporadicSets(rng *rand.Rand, n int) []workload.Workload {
	out := make([]workload.Workload, n)
	for i := range out {
		out[i] = workload.NewSporadic(sporadicSet(rng, i%2 == 1))
	}
	return out
}

// partitionedWorkload draws one placement input. Platform sizes rotate
// through m ∈ {4, 8, 16}; every fourth platform has mixed speeds 1–3;
// 15% of tasks are pinned to one or two processors. Every fifth platform
// is overloaded: tasks are added until the exact demand Σ C/T is at least
// overloadFactor × the capacity Σ speeds, so no placement exists and the
// counterexample trail runs.
func partitionedWorkload(rng *rand.Rand, i int) workload.Workload {
	m := []int{4, 8, 16}[i%3]
	procs := make([]workload.Processor, m)
	capacity := 0.0
	for j := range procs {
		if i%4 == 1 {
			procs[j].Speed = 1 + rng.Int63n(3)
		}
		capacity += float64(procs[j].EffectiveSpeed())
	}
	overloaded := i%5 == 2
	load := 0.55 + 0.3*rng.Float64()
	if overloaded {
		load = overloadFactor + 0.15*rng.Float64()
	}
	n := 2*m + rng.Intn(2*m+1)
	tasks := make([]workload.PartitionedTask, 0, n)
	for _, u := range taskgen.UUniFast(n, load*capacity, rng) {
		tasks = append(tasks, partitionedTask(rng, m, u))
	}
	wl := workload.NewPartitioned(procs, tasks)
	// The per-task cap of 0.9 in partitionedTask can cut an overloaded
	// platform's demand below capacity; top it up with more tasks.
	floor := new(big.Rat).Mul(wl.Capacity(), new(big.Rat).SetFloat64(overloadFactor))
	for overloaded && wl.Utilization().Cmp(floor) < 0 {
		wl.PartTasks = append(wl.PartTasks, partitionedTask(rng, m, 0.5+0.4*rng.Float64()))
	}
	return wl
}

// overloadFactor is the least demand of an overloaded platform, as a
// multiple of its capacity.
const overloadFactor = 1.05

// partitionedTask draws one task of utilization about min(u, 0.9) with a
// log-uniform period over 10²–10⁵ and a constrained deadline; 15% of
// tasks are pinned to one or two of the m processors.
func partitionedTask(rng *rand.Rand, m int, u float64) workload.PartitionedTask {
	t := int64(math.Round(math.Pow(10, 2+3*rng.Float64())))
	c := min(max(int64(math.Round(min(u, 0.9)*float64(t))), 1), t)
	d := t - int64(0.3*rng.Float64()*float64(t-c))
	pt := workload.PartitionedTask{Task: model.Task{WCET: c, Deadline: max(d, c), Period: t}}
	if rng.Float64() < 0.15 {
		a := rng.Intn(m)
		b := rng.Intn(m)
		pt.Affinity = []int{a}
		if b != a {
			pt.Affinity = []int{min(a, b), max(a, b)}
		}
	}
	return pt
}

// exactVerdicts is the analysis oracle: the exact processor-demand test
// under big.Rat arithmetic, independent of the cascade and of the
// bounded-denominator fast paths, over every set on all CPUs.
func exactVerdicts(sets []model.TaskSet) []string {
	pd := engine.MustGet("pd")
	out := make([]string, len(sets))
	runJobs(runtime.GOMAXPROCS(0), 0, len(sets), func(_, j int) {
		out[j] = pd.Analyze(sets[j], core.Options{Arithmetic: core.ArithBigRat}).Verdict.String()
	})
	return out
}

func taskSets(wls []workload.Workload) []model.TaskSet {
	out := make([]model.TaskSet, len(wls))
	for i, w := range wls {
		out[i] = w.Tasks
	}
	return out
}
