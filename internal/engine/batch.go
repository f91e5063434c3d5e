package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/workload"
)

// Job is one (workload, analyzer) unit of batch work.
type Job struct {
	// SetIndex identifies the task set within the batch.
	SetIndex int
	// SetName is an optional display name for the set.
	SetName string
	// Set is the sporadic task set to analyze. It is consulted only when
	// Workload is unset, so pre-workload call sites keep working.
	Set model.TaskSet
	// Workload is the polymorphic task set to analyze; when set it takes
	// precedence over Set and selects the analyzer entry point by model.
	Workload workload.Workload
	// Analyzer runs the test.
	Analyzer Analyzer
	// Opt tunes the test.
	Opt core.Options
}

// workload returns the effective workload: the explicit one, or Set
// wrapped as a sporadic workload.
func (j Job) workload() workload.Workload {
	if j.Workload.IsZero() {
		return workload.NewSporadic(j.Set)
	}
	return j.Workload
}

// JobResult is the outcome of one job, with per-job telemetry.
type JobResult struct {
	Job
	// Result is the test outcome; its Iterations field carries the
	// paper's effort metric.
	Result core.Result
	// Wall is the job's wall-clock duration.
	Wall time.Duration
	// Promotions counts the job's exits from the bounded-denominator
	// fast path (see demand.Scratch.ArithPromotions), measured against
	// the worker's scratch around the run.
	Promotions uint64
	// Err is non-nil when the batch context was canceled before the job
	// ran, or when the job paired an event workload with an analyzer
	// lacking event support (*EventsUnsupportedError); the Result is then
	// zero-valued with an Undecided verdict.
	Err error
}

// RunOptions tune the batch runner.
type RunOptions struct {
	// Workers bounds the worker pool; <= 0 selects runtime.NumCPU().
	Workers int
}

// Batch builds the (set x analyzer) cross product in set-major order: job
// i covers set i/len(analyzers) under analyzer i%len(analyzers), and
// Run's result slice keeps exactly that order.
func Batch(sets []model.TaskSet, analyzers []Analyzer, opt core.Options) []Job {
	jobs := make([]Job, 0, len(sets)*len(analyzers))
	for si, ts := range sets {
		for _, a := range analyzers {
			jobs = append(jobs, Job{SetIndex: si, Set: ts, Analyzer: a, Opt: opt})
		}
	}
	return jobs
}

// Run executes the jobs over a bounded worker pool and returns one result
// per job, in job order regardless of completion order, so batch output
// is deterministic for any worker count. The calling goroutine is one of
// the workers, so a one-worker run starts no goroutine; workers take the
// next job index from a shared counter. Each worker analyzes with its
// own pooled Scratch; Job.Opt.Scratch is ignored (it would be shared
// across workers otherwise) and comes back nil in the results. Cancel
// the context to stop: jobs not yet started are returned with Err set to
// the context's error (a job already running finishes normally — the
// tests themselves are not preemptible).
func Run(ctx context.Context, jobs []Job, ro RunOptions) []JobResult {
	out := make([]JobResult, len(jobs))
	workers := ro.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, max(len(jobs), 1))

	var next atomic.Int64
	work := func() {
		// One analysis Scratch per worker: every job this worker runs
		// reuses the same test list, job counters and source slice, so a
		// long batch allocates per worker, not per job. Any
		// caller-supplied Opt.Scratch is replaced — a Scratch serves one
		// analysis at a time, and a single one shared across the
		// fanned-out jobs would race between workers.
		scratch := demand.GetScratch()
		defer demand.PutScratch(scratch)
		for {
			i := int(next.Add(1)) - 1
			if i >= len(jobs) {
				return
			}
			job := jobs[i]
			job.Opt.Scratch = scratch
			p0 := scratch.ArithPromotions()
			out[i] = runJob(ctx, job)
			out[i].Promotions = scratch.ArithPromotions() - p0
			// Do not leak the pooled scratch to the caller through the
			// echoed Job: it is recycled when this worker exits.
			out[i].Job.Opt.Scratch = nil
		}
	}
	var wg sync.WaitGroup
	for range workers - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return out
}

// runJob executes one job, honoring cancellation before it starts and
// dispatching on the job's workload model.
func runJob(ctx context.Context, job Job) JobResult {
	if err := ctx.Err(); err != nil {
		return JobResult{Job: job, Result: core.Result{Verdict: core.Undecided}, Err: err}
	}
	start := time.Now()
	res, err := AnalyzeWorkload(job.Analyzer, job.workload(), job.Opt)
	return JobResult{Job: job, Result: res, Wall: time.Since(start), Err: err}
}

// RunSets is the common whole-batch convenience: it runs every analyzer
// on every set on all CPUs and returns the results grouped per set, in
// analyzer order.
func RunSets(ctx context.Context, sets []model.TaskSet, analyzers []Analyzer, opt core.Options, ro RunOptions) [][]core.Result {
	results := Run(ctx, Batch(sets, analyzers, opt), ro)
	grouped := make([][]core.Result, len(sets))
	for si := range grouped {
		grouped[si] = make([]core.Result, len(analyzers))
		for ai := range analyzers {
			grouped[si][ai] = results[si*len(analyzers)+ai].Result
		}
	}
	return grouped
}
