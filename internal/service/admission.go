package service

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/engine"
	"repro/internal/eventstream"
	"repro/internal/incremental"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/workload"
)

// AdmissionConfig tunes an admission controller.
type AdmissionConfig struct {
	// Analyzer names the feasibility test deciding admissions; empty
	// selects the cascade (cheap-first escalation, the paper's
	// recommendation for exactly this online use case).
	Analyzer string
	// Options tune the test.
	Options core.Options
	// Seed optionally pre-commits an initial workload; it must be
	// feasible under the analyzer. Its model — sporadic for the zero
	// value — becomes the session model, and every later proposal must
	// match it. An event-model seed requires an event-capable analyzer.
	Seed workload.Workload
	// NoIncremental disables the incremental fast path even when the
	// analyzer and options are eligible, forcing a full analysis on
	// every proposal. Decisions are identical either way; the knob
	// exists for benchmarking the escalation path and as an operational
	// escape hatch.
	NoIncremental bool
	// TrustedSeed skips the seed feasibility analysis (the structural
	// validation still runs). Used by store recovery, where the seed is
	// a replayed committed set that was verified feasible when admitted:
	// re-proving it at restart would only burn startup time. All other
	// construction — utilization accumulation order, candidate buffers,
	// the incremental certificate — is identical, so a recovered
	// controller decides subsequent proposals bit-identically to the
	// uninterrupted one.
	TrustedSeed bool
}

// ProposeOutcome reports one admission decision. Its counts are taken in
// the same critical section as the decision, so they are consistent even
// when other clients race on the session.
type ProposeOutcome struct {
	// Admitted reports whether the task was staged (pending commit).
	Admitted bool
	// Result is the deciding test outcome. A utilization pre-check that
	// already rules the task out yields an Infeasible verdict with zero
	// iterations — no analyzer ran.
	Result core.Result
	// Utilization is the committed+pending utilization after the
	// decision.
	Utilization float64
	// Committed and Pending count the session's tasks after the decision.
	Committed, Pending int
	// Escalated reports that a full analyzer run decided the proposal.
	// False means the decision came from the O(delta) paths: the
	// utilization gate or the incremental certificate.
	Escalated bool
	// Path names the decision path: obs.PathGate, obs.PathFast or
	// obs.PathCascade — the string form of Escalated plus the gate/fast
	// distinction, carried onto traces and feed events.
	Path string
	// Stages holds the per-analyzer stage records of a cascade escalation
	// (empty on the gate and fast paths). It is a fixed-size value copy,
	// keeping the propose path allocation-free.
	Stages obs.StageLog
	// Promotions counts this decision's exits from the bounded-denominator
	// fast path (zero on the gate and fast paths, which never run chunked
	// arithmetic).
	Promotions uint64
}

// FinishOutcome reports a commit or rollback.
type FinishOutcome struct {
	// Moved is how many pending tasks were committed or discarded.
	Moved int
	// Committed counts the permanent tasks after the operation.
	Committed int
	// Utilization is the session utilization after the operation.
	Utilization float64
}

// AdmissionStats counts a controller's lifetime activity.
type AdmissionStats struct {
	Proposed   int64
	Admitted   int64
	Rejected   int64
	Commits    int64
	Rollbacks  int64
	Iterations int64 // total test intervals spent on admission decisions
	// FastAccepts counts proposals admitted by the incremental
	// certificate alone; Escalations counts proposals that ran a full
	// analysis (the two never overlap, and utilization-gate rejections
	// count toward neither).
	FastAccepts int64
	Escalations int64
}

// Admission is a concurrency-safe online admission controller: tasks are
// proposed one at a time (or in bulk), staged while feasibility holds,
// and made permanent (or discarded) transactionally. The session is fixed
// to one workload model at construction; sporadic sessions admit sporadic
// tasks, event sessions admit event-driven tasks.
//
// The controller is built for sustained proposal rates: it keeps the
// running utilization incrementally as an exact fast rational (so the
// reject-on-overload path costs one addition and one comparison, no
// allocation, and never consults an analyzer), caches the committed and
// pending tasks in one contiguous candidate buffer (so a proposal appends
// the candidate instead of re-materializing the whole session workload),
// and owns an analysis Scratch reused across every decision (so the
// analyzers run allocation-free in steady state).
type Admission struct {
	mu        sync.Mutex
	analyzer  engine.Analyzer
	opt       core.Options
	model     workload.Model
	committed workload.Workload
	pending   workload.Workload
	util      numeric.Fast // utilization of committed + pending
	// candTasks/candEvents hold committed followed by pending tasks in
	// admission order; a proposal appends the candidate, a rejection
	// truncates it again, a rollback truncates to the committed prefix.
	candTasks  model.TaskSet
	candEvents []eventstream.Task
	scratch    *demand.Scratch
	// stages is the reusable per-decision stage log handed to the analyzer
	// via Options.Stages; like scratch it serves one analysis at a time
	// under the mutex, and its preallocated slots keep stage capture off
	// the heap.
	stages obs.StageLog
	stats  AdmissionStats
	// inc, when non-nil, is the persistent incremental-analysis state
	// that decides most proposals in O(delta): a sufficient certificate
	// whose accepts provably agree with the cascade, escalating to the
	// full analyzer otherwise. Only eligible configurations get one (see
	// incrementalEligible).
	inc *incremental.State
	// committedUtil mirrors util at the last commit point, making
	// Rollback's utilization reset O(1) instead of O(committed).
	committedUtil numeric.Fast
}

// NewAdmission builds an admission controller. It fails when the analyzer
// is unknown, lacks event support for an event-model seed, or the seed
// workload is invalid or infeasible.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) {
	name := cfg.Analyzer
	if name == "" {
		name = "cascade"
	}
	a, ok := engine.Get(name)
	if !ok {
		return nil, fmt.Errorf("service: unknown analyzer %q", name)
	}
	m := cfg.Seed.Kind()
	if m == workload.Events && !a.Info().Events {
		return nil, fmt.Errorf("service: analyzer %q cannot admit event-stream workloads", a.Info().Name)
	}
	adm := &Admission{
		analyzer:  a,
		opt:       cfg.Options,
		model:     m,
		committed: workload.Workload{Model: m},
		pending:   workload.Workload{Model: m},
		scratch:   demand.NewScratch(),
	}
	if cfg.Seed.Len() > 0 {
		seed := cfg.Seed.Clone()
		if err := seed.Validate(); err != nil {
			return nil, fmt.Errorf("service: seed workload: %w", err)
		}
		if !cfg.TrustedSeed {
			res, err := engine.AnalyzeWorkload(a, seed, adm.analyzeOptions())
			if err != nil {
				return nil, fmt.Errorf("service: seed workload: %w", err)
			}
			if res.Verdict != core.Feasible {
				return nil, fmt.Errorf("service: seed workload is not admissible (%s)", res.Verdict)
			}
		}
		adm.committed = seed
		adm.util = workloadUtilFast(seed)
		adm.candTasks = append(model.TaskSet(nil), seed.Tasks...)
		adm.candEvents = append([]eventstream.Task(nil), seed.Events...)
	}
	if incrementalEligible(name, cfg.Options, cfg.NoIncremental) {
		inc := incremental.New(engine.DefaultSuperPosLevel)
		if inc.AppendWorkload(adm.committed) {
			inc.Rebuild()
		}
		if inc.Usable() {
			inc.Commit()
			adm.inc = inc
		}
		// An unusable anchor (a seed the walk cannot certify) would only
		// ever escalate; dropping it keeps proposals from paying for the
		// arena bookkeeping.
	}
	adm.committedUtil = adm.util
	return adm, nil
}

// incrementalEligible reports whether a session configuration can use the
// incremental fast path. The certificate reasons about the plain
// synchronous demand-bound criterion the cascade decides, so anything
// that changes the cascade's semantics — blocking, iteration or level
// caps, a forced bound, or a different analyzer altogether — disables
// it. Both arithmetics stay eligible: they are bit-identical.
func incrementalEligible(analyzer string, opt core.Options, disabled bool) bool {
	return !disabled &&
		analyzer == "cascade" &&
		opt.Blocking == nil &&
		opt.MaxIterations == 0 &&
		opt.MaxLevel == 0 &&
		opt.Bound == ""
}

// analyzeOptions returns the test options with the controller's reusable
// Scratch attached; only the caller holding the mutex may run with them.
func (a *Admission) analyzeOptions() core.Options {
	opt := a.opt
	opt.Scratch = a.scratch
	opt.Stages = &a.stages
	return opt
}

// Analyzer returns the controller's analyzer name.
func (a *Admission) Analyzer() string { return a.analyzer.Info().Name }

// Model returns the session's workload model.
func (a *Admission) Model() workload.Model { return a.model }

// Propose decides whether the session can also accommodate the sporadic
// task t — the pre-workload entry point, equivalent to ProposeTask on a
// wrapped task.
func (a *Admission) Propose(t model.Task) (ProposeOutcome, error) {
	return a.ProposeTask(workload.SporadicTask(t))
}

// ProposeTask decides whether the session can also accommodate t. On a
// feasible verdict the task is staged into the pending set; Commit makes
// pending tasks permanent, Rollback discards them. Decisions are
// cheap-first: an invalid task, a model mismatch, or one that would push
// utilization past 1 is rejected before any analyzer runs.
func (a *Admission) ProposeTask(t workload.Task) (ProposeOutcome, error) {
	if err := a.check(t); err != nil {
		return ProposeOutcome{}, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.proposeLocked(t)
}

// ProposeBatch decides a sequence of tasks in one critical section, each
// decision seeing the tasks staged before it — the bulk counterpart of
// ProposeTask, one verdict per task in order. The whole slice is
// validated first, so a malformed or mismatched task fails the call
// before any state changes.
func (a *Admission) ProposeBatch(tasks []workload.Task) ([]ProposeOutcome, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("service: propose batch needs at least one task")
	}
	for i, t := range tasks {
		if err := a.check(t); err != nil {
			return nil, fmt.Errorf("task %d: %w", i, err)
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]ProposeOutcome, len(tasks))
	for i, t := range tasks {
		var err error
		if out[i], err = a.proposeLocked(t); err != nil {
			// Unreachable today (every task was validated above), but a
			// future error path must not masquerade as a rejection.
			return nil, fmt.Errorf("task %d: %w", i, err)
		}
	}
	return out, nil
}

// check validates a proposal against the task's own structure and the
// session model.
func (a *Admission) check(t workload.Task) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if t.Kind() != a.model {
		return fmt.Errorf("service: session admits %s tasks, got a %s task", a.model, t.Kind())
	}
	return nil
}

// proposeLocked decides one already-validated task; the caller holds the
// mutex. The returned error is always nil today (the analyzer's model
// capability is fixed at construction) but kept for symmetry.
func (a *Admission) proposeLocked(t workload.Task) (ProposeOutcome, error) {
	a.stats.Proposed++
	a.stages.Reset()

	// Cheap gate: incremental utilization. U > 1 is exactly infeasible
	// under either model, so this is a sound O(1) rejection, not a
	// heuristic.
	grown := addTaskUtil(a.util, t)
	cmp1 := grown.CmpInt(1)
	if cmp1 > 0 {
		a.stats.Rejected++
		return a.outcome(false, core.Result{Verdict: core.Infeasible}, obs.PathGate), nil
	}

	// Incremental fast path: with strictly sub-unit grown utilization the
	// certificate's accept is provably the cascade's verdict, so a full
	// analysis only runs when the certificate cannot accept. Grown
	// utilization of exactly 1 escalates — the certificate's between-point
	// slope argument needs U < 1.
	if a.inc != nil && cmp1 < 0 {
		if ok, checked := a.inc.Check(t); ok {
			a.stats.Iterations += checked
			a.admitLocked(t, grown)
			res := core.Result{
				Verdict:    core.Feasible,
				Iterations: checked,
				MaxLevel:   engine.DefaultSuperPosLevel,
			}
			a.stats.FastAccepts++
			return a.outcome(true, res, obs.PathFast), nil
		}
	}

	start := time.Now()
	p0 := a.scratch.ArithPromotions()
	res, err := engine.AnalyzeWorkload(a.analyzer, a.candidateLocked(t), a.analyzeOptions())
	if err != nil {
		a.retractCandidateLocked()
		return ProposeOutcome{}, err
	}
	promos := a.scratch.ArithPromotions() - p0
	if a.stages.Len() == 0 {
		// A non-cascade analyzer records no stages itself; log the whole
		// run as its one stage so traces always name the deciding test.
		a.stages.Record(a.analyzer.Info().Name, res.Verdict.String(), res.Iterations, time.Since(start).Nanoseconds(), promos)
	}
	a.stats.Iterations += res.Iterations
	a.stats.Escalations++
	if res.Verdict != core.Feasible {
		a.stats.Rejected++
		a.retractCandidateLocked()
		out := a.outcome(false, res, obs.PathCascade)
		out.Promotions = promos
		return out, nil
	}
	// Admitted: the candidate stays in the buffer (it is now the last
	// pending task) and is mirrored into the pending workload.
	a.retractCandidateLocked()
	a.admitLocked(t, grown)
	out := a.outcome(true, res, obs.PathCascade)
	out.Promotions = promos
	return out, nil
}

// admitLocked stages an accepted task: appends it to the candidate buffer,
// mirrors it into the pending workload, folds it into the incremental
// state and advances the running utilization; the caller holds the mutex.
func (a *Admission) admitLocked(t workload.Task, grown numeric.Fast) {
	if a.model == workload.Events {
		a.candEvents = append(a.candEvents, *t.Event)
		a.pending.Events = append(a.pending.Events, *t.Event)
	} else {
		a.candTasks = append(a.candTasks, *t.Sporadic)
		a.pending.Tasks = append(a.pending.Tasks, *t.Sporadic)
	}
	if a.inc != nil {
		a.inc.Admit(t)
	}
	a.util = grown
	a.stats.Admitted++
}

// candidateLocked appends t to the cached committed+pending buffer and
// returns it wrapped as the analyzer's workload — no per-proposal
// re-materialization of the session; the caller holds the mutex. The
// analyzers never mutate or retain the slice.
func (a *Admission) candidateLocked(t workload.Task) workload.Workload {
	w := workload.Workload{Model: a.model}
	if a.model == workload.Events {
		a.candEvents = append(a.candEvents, *t.Event)
		w.Events = a.candEvents
	} else {
		a.candTasks = append(a.candTasks, *t.Sporadic)
		w.Tasks = a.candTasks
	}
	return w
}

// retractCandidateLocked drops the rejected candidate from the buffer.
func (a *Admission) retractCandidateLocked() {
	if a.model == workload.Events {
		a.candEvents = a.candEvents[:len(a.candEvents)-1]
	} else {
		a.candTasks = a.candTasks[:len(a.candTasks)-1]
	}
}

// outcome snapshots the decision state; the caller holds the mutex.
func (a *Admission) outcome(admitted bool, res core.Result, path string) ProposeOutcome {
	return ProposeOutcome{
		Admitted:    admitted,
		Result:      res,
		Utilization: a.util.Float(),
		Committed:   a.committed.Len(),
		Pending:     a.pending.Len(),
		Escalated:   path == obs.PathCascade,
		Path:        path,
		Stages:      a.stages,
	}
}

// Commit makes every pending task permanent. The candidate buffer already
// lists committed followed by pending tasks, so it is left untouched.
func (a *Admission) Commit() FinishOutcome {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.pending.Len()
	// The models always match (both are fixed at construction).
	a.committed, _ = a.committed.Concat(a.pending)
	a.pending = workload.Workload{Model: a.model}
	if a.inc != nil {
		a.inc.Commit()
	}
	a.committedUtil = a.util
	a.stats.Commits++
	return FinishOutcome{Moved: n, Committed: a.committed.Len(), Utilization: a.util.Float()}
}

// Rollback discards every pending task, truncating the candidate buffer
// back to its committed prefix.
func (a *Admission) Rollback() FinishOutcome {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.pending.Len()
	// Truncate the pending mirror and the candidate buffer in place:
	// keeping their capacity is what makes the steady-state
	// propose/rollback cycle allocation-free.
	if a.model == workload.Events {
		a.candEvents = a.candEvents[:len(a.committed.Events)]
		a.pending.Events = a.pending.Events[:0]
	} else {
		a.candTasks = a.candTasks[:len(a.committed.Tasks)]
		a.pending.Tasks = a.pending.Tasks[:0]
	}
	if a.inc != nil {
		a.inc.Rollback()
	}
	a.util = a.committedUtil
	a.stats.Rollbacks++
	return FinishOutcome{Moved: n, Committed: a.committed.Len(), Utilization: a.util.Float()}
}

// Snapshot returns deep copies of the committed and pending workloads and
// the combined utilization.
func (a *Admission) Snapshot() (committed, pending workload.Workload, utilization float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.committed.Clone(), a.pending.Clone(), a.util.Float()
}

// Stats returns the lifetime counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// addTaskUtil adds one task's exact utilization to u without allocating:
// C/T for a sporadic task, Σ C/cycle over the stream for an event task.
func addTaskUtil(u numeric.Fast, t workload.Task) numeric.Fast {
	if t.Event != nil {
		return addEventUtil(u, t.Event)
	}
	return u.AddRat(t.Sporadic.WCET, t.Sporadic.Period)
}

// addEventUtil adds an event task's utilization (one-shot elements
// contribute nothing).
func addEventUtil(u numeric.Fast, et *eventstream.Task) numeric.Fast {
	for _, e := range et.Stream {
		if e.Cycle > 0 {
			u = u.AddRat(et.WCET, e.Cycle)
		}
	}
	return u
}

// workloadUtilFast returns a workload's exact utilization as a fast
// rational.
func workloadUtilFast(w workload.Workload) numeric.Fast {
	var u numeric.Fast
	if w.Kind() == workload.Events {
		for i := range w.Events {
			u = addEventUtil(u, &w.Events[i])
		}
		return u
	}
	for _, t := range w.Tasks {
		u = u.AddRat(t.WCET, t.Period)
	}
	return u
}
