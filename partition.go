package edf

import (
	"context"

	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/workload"
)

// Partitioned multiprocessor EDF. A partitioned workload assigns every
// task statically to one of m processors and runs uniprocessor EDF on
// each; the placement engine searches bin-packing heuristics for an
// assignment whose every bin the exact feasibility analysis confirms.

// WorkloadPartitioned is the partitioned multiprocessor workload model.
const WorkloadPartitioned = workload.Partitioned

// Processor describes one processor of a partitioned platform. Speed
// scales capacity: a task with WCET C placed on speed s executes in
// ceil(C/s) time units. Speed 0 means unit speed.
type Processor = workload.Processor

// PartitionedTask is a task plus an optional affinity set restricting
// which processors may host it (empty = any).
type PartitionedTask = workload.PartitionedTask

// PartitionedWorkload wraps an m-processor platform and its task set.
func PartitionedWorkload(procs []Processor, tasks []PartitionedTask) Workload {
	return workload.NewPartitioned(procs, tasks)
}

// PlacementHeuristic names a bin-packing order: first-fit, worst-fit or
// balance.
type PlacementHeuristic = partition.Heuristic

// Placement heuristics, in the order the engine tries them.
const (
	PlaceFirstFit = partition.FirstFit
	PlaceWorstFit = partition.WorstFit
	PlaceBalance  = partition.Balance
)

// Placement is the outcome of a partitioned feasibility analysis: an
// assignment with per-processor verdicts when feasible, or the attempt
// trail and counterexample when no heuristic placed every task.
type Placement = partition.Placement

// PlacementConfig tunes a placement search.
type PlacementConfig = partition.Config

// ProcessorReport is one processor's verified bin.
type ProcessorReport = partition.ProcessorReport

// PlacementAttempt records one heuristic's run.
type PlacementAttempt = partition.Attempt

// PartitionedUnsupportedError reports that a uniprocessor entry point
// was handed a partitioned workload.
type PartitionedUnsupportedError = engine.PartitionedUnsupportedError

// AnalyzePartitioned searches for a feasible partitioned-EDF placement
// on the calling goroutine. The zero config uses the cascade analyzer
// and all heuristics in order; per-bin verdicts are exact, so a feasible
// placement is a proof and an infeasible one carries the heuristic
// rejection trail.
func AnalyzePartitioned(ctx context.Context, wl Workload, cfg PlacementConfig) (Placement, error) {
	return partition.Place(ctx, wl, cfg)
}
