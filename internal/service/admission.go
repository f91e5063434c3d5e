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
	// construction — utilization accumulation order, the task buffer,
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
	// fast path: those of the exact utilization comparison the gate falls
	// back to and of an escalated analysis. A decision the fixed-point
	// gate and the certificate settle alone runs no chunked arithmetic
	// and counts zero.
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
	// Promotions counts the bounded-denominator fast-path exits of every
	// analysis the controller ran: the seed analysis and anchor rebuild
	// at construction, exact gate fallbacks and escalations.
	Promotions uint64
}

// Admission is a concurrency-safe online admission controller: tasks are
// proposed one at a time (or in bulk), staged while feasibility holds,
// and made permanent (or discarded) transactionally. The session is fixed
// to one workload model at construction; sporadic sessions admit sporadic
// tasks, event sessions admit event-driven tasks.
//
// The controller is built for sustained proposal rates: it keeps the
// running utilization incrementally as a 128-bit fixed-point bound (so
// the reject-on-overload path costs one addition and one comparison, no
// allocation, and never consults an analyzer; only a sum within 2^-128
// per term of 1 is compared exactly, on the Scratch registers), keeps the
// committed and pending tasks in one contiguous buffer (so a proposal
// appends the candidate instead of re-materializing the whole session
// workload, and a commit only moves the committed boundary), and owns an
// analysis Scratch reused across every decision (so the analyzers run
// allocation-free in steady state).
type Admission struct {
	mu       sync.Mutex
	analyzer engine.Analyzer
	opt      core.Options
	// model is fixed at construction and never written again: check and
	// Model read it without the mutex.
	model workload.Model
	// tasks holds the committed tasks followed by the pending ones, in
	// admission order; its first committed entries are permanent. A
	// proposal appends its candidate and a rejection truncates it again,
	// Commit moves the boundary and Rollback truncates to it.
	tasks     workload.Workload
	committed int
	util      numeric.UtilSum // utilization of committed + pending
	scratch   *demand.Scratch
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
	// incremental.Eligible).
	inc *incremental.State
	// committedUtil mirrors util at the last commit point, making
	// Rollback's utilization reset O(1) instead of O(committed).
	committedUtil numeric.UtilSum
}

// NewAdmission builds an admission controller. It fails when the seed is
// partitioned (sessions admit sporadic or event tasks), the analyzer is
// unknown or lacks event support for an event-model seed, or the seed
// workload is invalid or infeasible.
func NewAdmission(cfg AdmissionConfig) (*Admission, error) {
	m := cfg.Seed.Kind()
	if m == workload.Partitioned {
		return nil, fmt.Errorf("sessions: %w", errPartitionedEndpoint)
	}
	name := cfg.Analyzer
	if name == "" {
		name = "cascade"
	}
	a, ok := engine.Get(name)
	if !ok {
		return nil, fmt.Errorf("service: unknown analyzer %q", name)
	}
	if m == workload.Events && !a.Info().Events {
		return nil, fmt.Errorf("service: analyzer %q cannot admit event-stream workloads", a.Info().Name)
	}
	adm := &Admission{
		analyzer: a,
		opt:      cfg.Options,
		model:    m,
		tasks:    workload.Workload{Model: m},
		scratch:  demand.NewScratch(),
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
		adm.tasks.Tasks, adm.tasks.Events = seed.Tasks, seed.Events
		adm.committed = seed.Len()
		adm.util = workloadUtil(seed)
	}
	if !cfg.NoIncremental && incremental.Eligible(a.Info().Name, cfg.Options) {
		inc := incremental.New(engine.DefaultSuperPosLevel)
		inc.Rebuild(adm.scratch, adm.sources())
		if inc.Usable() {
			inc.Commit()
			adm.inc = inc
		}
		// An unusable anchor (a seed the walk cannot certify) would only
		// ever escalate; dropping it keeps proposals from paying for the
		// fold bookkeeping.
	}
	adm.committedUtil = adm.util
	return adm, nil
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

	p0 := a.scratch.ArithPromotions()

	// The candidate joins the buffer now and leaves it again on every
	// rejection path: the exact gate and an escalation both analyze the
	// buffer as it stands.
	a.tasks.Append(t)

	// Cheap gate: incremental utilization. U > 1 is exactly infeasible
	// under either model, so this is a sound O(1) rejection, not a
	// heuristic. The fixed-point bound settles all but sums within
	// 2^-128 per term of 1, which are compared exactly on the Scratch
	// registers; the plan that builds is the one an escalated cascade
	// over the same candidate looks up next.
	grown := addTaskUtil(a.util, t)
	cmp1, ok := grown.CmpOne()
	if !ok {
		cmp1 = a.scratch.Util(a.sources()).CmpInt(1)
	}
	if cmp1 > 0 {
		a.pop()
		a.stats.Rejected++
		return a.outcome(false, core.Result{Verdict: core.Infeasible}, obs.PathGate, p0), nil
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
			return a.outcome(true, res, obs.PathFast, p0), nil
		}
	}

	start := time.Now()
	pe := a.scratch.ArithPromotions()
	res, err := engine.AnalyzeWorkload(a.analyzer, a.tasks, a.analyzeOptions())
	if err != nil {
		a.pop()
		return ProposeOutcome{}, err
	}
	if a.stages.Len() == 0 {
		// A non-cascade analyzer records no stages itself; log the whole
		// run as its one stage so traces always name the deciding test.
		a.stages.Record(a.analyzer.Info().Name, res.Verdict.String(), res.Iterations, time.Since(start).Nanoseconds(), a.scratch.ArithPromotions()-pe)
	}
	a.stats.Iterations += res.Iterations
	a.stats.Escalations++
	if res.Verdict != core.Feasible {
		a.pop()
		a.stats.Rejected++
		return a.outcome(false, res, obs.PathCascade, p0), nil
	}
	a.admitLocked(t, grown)
	return a.outcome(true, res, obs.PathCascade, p0), nil
}

// admitLocked stages an accepted task, which already is the last entry
// of the buffer: it folds the task into the incremental state and
// advances the running utilization; the caller holds the mutex.
func (a *Admission) admitLocked(t workload.Task, grown numeric.UtilSum) {
	if a.inc != nil {
		a.inc.Admit(t)
	}
	a.util = grown
	a.stats.Admitted++
}

// pop drops the last task of the buffer, a rejected candidate, keeping
// the buffer's capacity: that is what makes the steady-state
// propose/rollback cycle allocation-free.
func (a *Admission) pop() { a.tasks = a.tasks.Slice(0, a.tasks.Len()-1) }

// sources lowers the whole buffer to demand sources, for the exact gate
// and the anchor rebuild: sporadic tasks on the Scratch's reused source
// slice, event tasks one source per stream element.
func (a *Admission) sources() []demand.Uniform {
	if a.model == workload.Events {
		return eventstream.Sources(a.tasks.Events)
	}
	return a.scratch.Sources(a.tasks.Tasks)
}

// outcome snapshots the decision state, counting the promotions since
// the tally p0 read when the decision began; the caller holds the mutex.
func (a *Admission) outcome(admitted bool, res core.Result, path string, p0 uint64) ProposeOutcome {
	return ProposeOutcome{
		Admitted:    admitted,
		Result:      res,
		Utilization: a.util.Float(),
		Committed:   a.committed,
		Pending:     a.tasks.Len() - a.committed,
		Escalated:   path == obs.PathCascade,
		Path:        path,
		Stages:      a.stages,
		Promotions:  a.scratch.ArithPromotions() - p0,
	}
}

// Commit makes every pending task permanent by moving the committed
// boundary to the end of the buffer.
func (a *Admission) Commit() FinishOutcome {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.tasks.Len() - a.committed
	a.committed = a.tasks.Len()
	if a.inc != nil {
		a.inc.Commit()
	}
	a.committedUtil = a.util
	a.stats.Commits++
	return FinishOutcome{Moved: n, Committed: a.committed, Utilization: a.util.Float()}
}

// Rollback discards every pending task, truncating the buffer back to
// its committed prefix.
func (a *Admission) Rollback() FinishOutcome {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.tasks.Len() - a.committed
	a.tasks = a.tasks.Slice(0, a.committed)
	if a.inc != nil {
		a.inc.Rollback()
	}
	a.util = a.committedUtil
	a.stats.Rollbacks++
	return FinishOutcome{Moved: n, Committed: a.committed, Utilization: a.util.Float()}
}

// Counts returns the numbers of committed and pending tasks and the
// combined utilization, copying nothing.
func (a *Admission) Counts() (committed, pending int, utilization float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.committed, a.tasks.Len() - a.committed, a.util.Float()
}

// Snapshot returns deep copies of the committed and pending workloads and
// the combined utilization, for a store snapshot's image of the session.
func (a *Admission) Snapshot() (committed, pending workload.Workload, utilization float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tasks.Slice(0, a.committed).Clone(), a.tasks.Slice(a.committed, a.tasks.Len()).Clone(), a.util.Float()
}

// Stats returns the lifetime counters.
func (a *Admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.Promotions = a.scratch.ArithPromotions()
	return st
}

// addTaskUtil adds one task's utilization to u without allocating: C/T
// for a sporadic task, Σ C/cycle over the stream for an event task.
func addTaskUtil(u numeric.UtilSum, t workload.Task) numeric.UtilSum {
	if t.Event != nil {
		return addEventUtil(u, t.Event)
	}
	return u.Add(t.Sporadic.WCET, t.Sporadic.Period)
}

// addEventUtil adds an event task's utilization (one-shot elements
// contribute nothing).
func addEventUtil(u numeric.UtilSum, et *eventstream.Task) numeric.UtilSum {
	for _, e := range et.Stream {
		if e.Cycle > 0 {
			u = u.Add(et.WCET, e.Cycle)
		}
	}
	return u
}

// workloadUtil returns a workload's utilization as a fixed-point sum.
func workloadUtil(w workload.Workload) numeric.UtilSum {
	var u numeric.UtilSum
	if w.Kind() == workload.Events {
		for i := range w.Events {
			u = addEventUtil(u, &w.Events[i])
		}
		return u
	}
	for _, t := range w.Tasks {
		u = u.Add(t.WCET, t.Period)
	}
	return u
}
