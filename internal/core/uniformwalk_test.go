package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/eventstream"
	"repro/internal/model"
)

// walkGridPeriods is the round-period grid of the walk comparison's grid
// shape: small enough that a feasibility bound spans tens to thousands
// of test intervals.
var walkGridPeriods = []int64{10, 20, 50, 100, 200, 500, 1000, 2000}

// walkSporadicSet draws a sporadic set targeting utilization in
// [0.4, 0.95), with deadlines between C and T, so the George and
// superposition bounds lie beyond the first deadlines. spread selects
// log-uniform periods in [10, 10^4] instead of the round grid.
func walkSporadicSet(rng *rand.Rand, spread bool) model.TaskSet {
	n := 2 + rng.Intn(10)
	u := 0.4 + 0.55*rng.Float64()
	ts := make(model.TaskSet, 0, n)
	for range n {
		t := walkGridPeriods[rng.Intn(len(walkGridPeriods))]
		if spread {
			t = int64(math.Pow(10, 1+3*rng.Float64()))
		}
		c := max(int64(u/float64(n)*float64(t)), 1)
		ts = append(ts, model.Task{WCET: c, Deadline: c + rng.Int63n(t-c+1), Period: t})
	}
	return ts
}

// walkEventTasks draws an event set targeting utilization below 1: each
// task has one to three elements sharing a cycle at random offsets (a
// burst), a quarter of them one-shot, and a deadline shorter than the
// cycle plus its WCET.
func walkEventTasks(rng *rand.Rand) []eventstream.Task {
	n := 1 + rng.Intn(5)
	u := 0.4 + 0.55*rng.Float64()
	tasks := make([]eventstream.Task, 0, n)
	for range n {
		cycle := 20 + rng.Int63n(1000)
		stream := make(eventstream.Stream, 1+rng.Intn(3))
		periodic := int64(0)
		for i := range stream {
			stream[i].Offset = rng.Int63n(cycle)
			if rng.Intn(4) > 0 {
				stream[i].Cycle = cycle
				periodic++
			}
		}
		c := max(int64(u/float64(n)*float64(cycle)/float64(max(periodic, 1))), 1)
		tasks = append(tasks, eventstream.Task{Stream: stream, WCET: c, Deadline: c + rng.Int63n(cycle)})
	}
	return tasks
}

// TestUniformWalkMatchesGenericWalk pins the loser-tree walk
// (processorDemandUniform, chosen when no blocking and no iteration cap
// are set) to the generic heap walk, which an unreachable iteration cap
// selects: both must return identical Results — verdict, iterations,
// failure interval and bound — on the empty set, on grid and spread
// sporadic sets and on event sets with offsets and one-shot elements.
// Most sets walk more than one interval, so run batching and tie
// merging are exercised, not just the first check.
func TestUniformWalkMatchesGenericWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const trials = 3000
	var multi, oneShotMulti int
	for i := range trials {
		var srcs []demand.Uniform
		switch i % 3 {
		case 0:
			if i == 0 {
				break // the empty set: no sources, no test interval
			}
			srcs = demand.FromTasks(walkSporadicSet(rng, false))
		case 1:
			srcs = demand.FromTasks(walkSporadicSet(rng, true))
		default:
			srcs = eventstream.Sources(walkEventTasks(rng))
		}
		uniform := ProcessorDemandSources(srcs, Options{})
		generic := ProcessorDemandSources(srcs, Options{MaxIterations: math.MaxInt64})
		if uniform != generic {
			t.Fatalf("trial %d: uniform walk %+v != generic walk %+v for %+v", i, uniform, generic, srcs)
		}
		if uniform.Iterations > 1 {
			multi++
			for _, s := range srcs {
				if s.Sep == 0 {
					oneShotMulti++
					break
				}
			}
		}
	}
	if multi*2 <= trials {
		t.Errorf("only %d of %d sets walked more than one interval", multi, trials)
	}
	if oneShotMulti == 0 {
		t.Error("no set with a one-shot source walked more than one interval")
	}
	t.Logf("%d of %d sets walked more than one interval, %d of them with one-shot sources", multi, trials, oneShotMulti)
}
