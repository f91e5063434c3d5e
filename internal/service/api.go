package service

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/workload"
)

// Workload is the polymorphic wire task set: {"model": "sporadic",
// "tasks": [...]} or {"model": "events", "tasks": [{wcet, deadline,
// stream: [{cycle, offset}, ...]}]}. A missing model means sporadic, so
// every pre-workload payload keeps parsing unchanged.
type Workload = workload.Workload

// WorkloadTask is the polymorphic wire task of the propose endpoints: an
// object with a "stream" key is an event-driven task, anything else is a
// sporadic task.
type WorkloadTask = workload.Task

// SporadicWorkload wraps a sporadic task set for a request.
func SporadicWorkload(ts model.TaskSet) Workload { return workload.NewSporadic(ts) }

// EventWorkload wraps an event-driven task set for a request.
func EventWorkload(tasks []eventstream.Task) Workload { return workload.NewEvents(tasks) }

// PartitionedWorkload wraps processors and placement-constrained tasks
// for a partition request.
func PartitionedWorkload(procs []workload.Processor, tasks []workload.PartitionedTask) Workload {
	return workload.NewPartitioned(procs, tasks)
}

// SporadicTask wraps a sporadic task for a propose request.
func SporadicTask(t model.Task) WorkloadTask { return workload.SporadicTask(t) }

// EventTask wraps an event-driven task for a propose request.
func EventTask(t eventstream.Task) WorkloadTask { return workload.EventTask(t) }

// OptionsJSON is the wire form of the serializable subset of core.Options.
// Blocking functions cannot cross the wire (and would defeat the content-
// addressed cache), so the service does not accept them.
type OptionsJSON struct {
	// Arithmetic is "exact" (default). "float64" and "float" name a
	// retired mode and are accepted as "exact".
	Arithmetic string `json:"arithmetic,omitempty"`
	// RevisionOrder is "fifo" (default), "lifo" or "maxerror".
	RevisionOrder string `json:"revision_order,omitempty"`
	// MaxIterations caps checked test intervals (0 = unlimited).
	MaxIterations int64 `json:"max_iterations,omitempty"`
	// MaxLevel caps the superposition level of the dynamic test
	// (0 = unlimited).
	MaxLevel int64 `json:"max_level,omitempty"`
}

// Core converts the wire options to engine options.
func (o OptionsJSON) Core() (core.Options, error) {
	var opt core.Options
	switch strings.ToLower(o.Arithmetic) {
	case "", "exact", "float64", "float":
	default:
		return opt, fmt.Errorf("unknown arithmetic %q (want exact)", o.Arithmetic)
	}
	switch strings.ToLower(o.RevisionOrder) {
	case "", "fifo":
	case "lifo":
		opt.RevisionOrder = core.ReviseLIFO
	case "maxerror", "max-error":
		opt.RevisionOrder = core.ReviseMaxError
	default:
		return opt, fmt.Errorf("unknown revision order %q (want fifo, lifo or maxerror)", o.RevisionOrder)
	}
	if o.MaxIterations < 0 || o.MaxLevel < 0 {
		return opt, fmt.Errorf("max_iterations and max_level must be non-negative")
	}
	opt.MaxIterations = o.MaxIterations
	opt.MaxLevel = o.MaxLevel
	return opt, nil
}

// appendMember appends the "options" member of a request unless o is
// zero, which its omitzero tag omits.
func (o OptionsJSON) appendMember(b []byte) []byte {
	if o == (OptionsJSON{}) {
		return b
	}
	b = append(workload.AppendKey(b, "options"), '{')
	b = appendOptString(b, "arithmetic", o.Arithmetic)
	b = appendOptString(b, "revision_order", o.RevisionOrder)
	b = appendOptInt(b, "max_iterations", o.MaxIterations)
	b = appendOptInt(b, "max_level", o.MaxLevel)
	return append(b, '}')
}

// ResultJSON is the wire form of a core.Result.
type ResultJSON struct {
	Verdict         string `json:"verdict"`
	Iterations      int64  `json:"iterations"`
	Revisions       int64  `json:"revisions,omitempty"`
	MaxLevel        int64  `json:"max_level,omitempty"`
	FailureInterval int64  `json:"failure_interval,omitempty"`
	Bound           int64  `json:"bound,omitempty"`
	BoundKind       string `json:"bound_kind,omitempty"`
}

// appendJSON appends the result as json.Marshal writes it.
func (r ResultJSON) appendJSON(b []byte) []byte {
	b = workload.AppendString(append(b, `{"verdict":`...), r.Verdict)
	b = strconv.AppendInt(workload.AppendKey(b, "iterations"), r.Iterations, 10)
	b = appendOptInt(b, "revisions", r.Revisions)
	b = appendOptInt(b, "max_level", r.MaxLevel)
	b = appendOptInt(b, "failure_interval", r.FailureInterval)
	b = appendOptInt(b, "bound", r.Bound)
	b = appendOptString(b, "bound_kind", r.BoundKind)
	return append(b, '}')
}

// NewResultJSON converts an engine result to its wire form.
func NewResultJSON(r core.Result) ResultJSON {
	return ResultJSON{
		Verdict:         r.Verdict.String(),
		Iterations:      r.Iterations,
		Revisions:       r.Revisions,
		MaxLevel:        r.MaxLevel,
		FailureInterval: r.FailureInterval,
		Bound:           r.Bound,
		BoundKind:       string(r.BoundKind),
	}
}

// AnalyzeRequest asks for one analysis of one workload. On the wire the
// workload is flattened into the request object: {"name": ..., "model":
// ..., "tasks": [...], "analyzer": ..., "options": {...}}.
type AnalyzeRequest struct {
	// Name optionally labels the workload in logs and responses.
	Name string
	// Workload is the task set to analyze, under either model.
	Workload Workload
	// Analyzer names a registered analyzer; empty selects the cascade.
	Analyzer string
	// Options tune the test.
	Options OptionsJSON
}

// UnmarshalJSON flattens the workload out of the request object in one
// walk, so pre-workload bodies ({"tasks": [...]}) keep working.
func (r *AnalyzeRequest) UnmarshalJSON(data []byte) error {
	*r = AnalyzeRequest{}
	return workload.DecodeRequest(data, &r.Workload,
		workload.Field{Name: "name", Dst: &r.Name},
		workload.Field{Name: "analyzer", Dst: &r.Analyzer},
		workload.Field{Name: "options", Dst: &r.Options})
}

// MarshalJSON emits the flattened wire form in one append pass; sporadic
// requests omit the model discriminator and stay byte-compatible with
// the pre-workload schema.
func (r AnalyzeRequest) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 96+r.Workload.EncodedSizeHint()), '{')
	b = appendOptString(b, "name", r.Name)
	b = appendOptString(b, "model", string(r.Workload.WireModel()))
	b = r.Workload.AppendTasks(workload.AppendKey(b, "tasks"))
	b = appendOptString(b, "analyzer", r.Analyzer)
	b = r.Options.appendMember(b)
	return append(b, '}'), nil
}

// AnalyzeResponse reports one analysis with telemetry.
type AnalyzeResponse struct {
	Name string `json:"name,omitempty"`
	// Model echoes the workload model the analysis ran under.
	Model    string     `json:"model"`
	Analyzer string     `json:"analyzer"`
	Result   ResultJSON `json:"result"`
	// WallNS is the analysis wall time in nanoseconds (zero on cache hits:
	// no analysis ran).
	WallNS int64 `json:"wall_ns"`
	// Cached reports whether the result came from the content-addressed
	// cache.
	Cached bool `json:"cached"`
	// Fingerprint is the content address of (workload, analyzer, options);
	// empty when the analysis is not cacheable. Sporadic and event
	// workloads hash into disjoint domains, so their results can never
	// alias in a cache keyed by this value.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// MarshalJSON emits the reply in one append pass, byte-identical to
// encoding/json's reflection over the struct tags.
func (r AnalyzeResponse) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 256), '{')
	b = appendOptString(b, "name", r.Name)
	b = workload.AppendString(workload.AppendKey(b, "model"), r.Model)
	b = workload.AppendString(workload.AppendKey(b, "analyzer"), r.Analyzer)
	b = r.Result.appendJSON(workload.AppendKey(b, "result"))
	b = strconv.AppendInt(workload.AppendKey(b, "wall_ns"), r.WallNS, 10)
	b = strconv.AppendBool(workload.AppendKey(b, "cached"), r.Cached)
	b = appendOptString(b, "fingerprint", r.Fingerprint)
	return append(b, '}'), nil
}

// WorkloadSet is one named workload of a batch request: {"name": ...,
// "model": ..., "tasks": [...]}. It replaces the sporadic-only SetJSON of
// the pre-workload schema, whose payloads still parse (no model means
// sporadic).
type WorkloadSet struct {
	Name     string
	Workload Workload
}

// UnmarshalJSON flattens the workload out of the set object.
func (s *WorkloadSet) UnmarshalJSON(data []byte) error {
	*s = WorkloadSet{}
	return workload.DecodeRequest(data, &s.Workload, workload.Field{Name: "name", Dst: &s.Name})
}

// MarshalJSON emits the flattened wire form in one append pass.
func (s WorkloadSet) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 64+s.Workload.EncodedSizeHint()), '{')
	b = appendOptString(b, "name", s.Name)
	b = appendWorkload(b, s.Workload)
	return append(b, '}'), nil
}

// BatchRequest fans workloads x analyzers over the parallel batch runner.
type BatchRequest struct {
	Sets []WorkloadSet `json:"sets"`
	// Analyzers holds registered analyzer names or the group keywords
	// all/exact/sufficient; empty selects the cascade.
	Analyzers []string    `json:"analyzers,omitempty"`
	Options   OptionsJSON `json:"options,omitzero"`
	// Workers bounds the worker pool; 0 selects the server default.
	Workers int `json:"workers,omitempty"`
}

// BatchJobJSON is one (workload, analyzer) outcome in set-major order.
type BatchJobJSON struct {
	SetIndex int        `json:"set_index"`
	SetName  string     `json:"set_name,omitempty"`
	Model    string     `json:"model,omitempty"`
	Analyzer string     `json:"analyzer"`
	Result   ResultJSON `json:"result"`
	WallNS   int64      `json:"wall_ns"`
	Cached   bool       `json:"cached,omitempty"`
	// Err is set when the batch context was canceled before the job ran,
	// or when an event workload met an analyzer without event support.
	Err string `json:"err,omitempty"`
}

// BatchResponse reports every job of a batch in request order.
type BatchResponse struct {
	Results []BatchJobJSON `json:"results"`
}

// SessionRequest opens an admission session. The optional seed workload
// is flattened into the object ({"model": ..., "tasks": [...]}) and fixes
// the session's model; pre-workload bodies seed sporadic sessions.
type SessionRequest struct {
	// Analyzer names the admission test; empty selects the cascade.
	Analyzer string
	Options  OptionsJSON
	// Workload optionally seeds the committed set; the seed must be
	// feasible under the session analyzer. Its model (default sporadic)
	// becomes the session model.
	Workload Workload
}

// UnmarshalJSON flattens the seed workload out of the request object.
func (r *SessionRequest) UnmarshalJSON(data []byte) error {
	*r = SessionRequest{}
	return workload.DecodeRequest(data, &r.Workload,
		workload.Field{Name: "analyzer", Dst: &r.Analyzer},
		workload.Field{Name: "options", Dst: &r.Options})
}

// MarshalJSON emits the flattened wire form in one append pass. An empty
// seed omits its task array but still carries its model, so event
// sessions can be opened without tasks.
func (r SessionRequest) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 96+r.Workload.EncodedSizeHint()), '{')
	b = appendOptString(b, "analyzer", r.Analyzer)
	b = r.Options.appendMember(b)
	b = appendOptString(b, "model", string(r.Workload.WireModel()))
	if r.Workload.Len() > 0 {
		b = r.Workload.AppendTasks(workload.AppendKey(b, "tasks"))
	}
	return append(b, '}'), nil
}

// SessionResponse describes a session's current state.
type SessionResponse struct {
	ID string `json:"id"`
	// Model is the session's workload model; proposals must match it.
	Model       string  `json:"model"`
	Analyzer    string  `json:"analyzer"`
	Committed   int     `json:"committed"`
	Pending     int     `json:"pending"`
	Utilization float64 `json:"utilization"`
}

// MarshalJSON emits the reply in one append pass, byte-identical to
// encoding/json's reflection over the struct tags.
func (r SessionResponse) MarshalJSON() ([]byte, error) {
	b := workload.AppendString(append(make([]byte, 0, 128), `{"id":`...), r.ID)
	b = workload.AppendString(workload.AppendKey(b, "model"), r.Model)
	b = workload.AppendString(workload.AppendKey(b, "analyzer"), r.Analyzer)
	b = strconv.AppendInt(workload.AppendKey(b, "committed"), int64(r.Committed), 10)
	b = strconv.AppendInt(workload.AppendKey(b, "pending"), int64(r.Pending), 10)
	b, err := workload.AppendFloat(workload.AppendKey(b, "utilization"), r.Utilization)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// ProposeRequest stages one task into a session. The task is polymorphic:
// a "stream" key makes it an event-driven task, otherwise it is sporadic.
// Its model must match the session's.
type ProposeRequest struct {
	Task WorkloadTask `json:"task"`
}

// proposeRequestKeys is ProposeRequest's one wire key.
var proposeRequestKeys = []string{"task"}

// UnmarshalJSON replaces r with the proposal in data in one walk, which
// checks the body as it types it: each "task" member, matched as
// encoding/json matches the field and null included, decodes in document
// order as Task.UnmarshalJSON decodes it, so a repeated key keeps the
// last task, and a task's error is answered once the whole body has
// passed the check. A body with a syntax error, or one that is not an
// object, goes to json.Unmarshal, into a method-free copy of r.
func (r *ProposeRequest) UnmarshalJSON(data []byte) error {
	*r = ProposeRequest{}
	s := workload.NewScanner(data)
	if s.Peek() == '{' {
		var err error
		for s.Member() {
			if workload.MatchKey(s.Key(), proposeRequestKeys) < 0 || err != nil {
				s.Skip()
			} else {
				err = s.DecodeTask(&r.Task)
			}
		}
		if s.End() {
			return err
		}
	}
	*r = ProposeRequest{}
	type plain ProposeRequest
	return json.Unmarshal(data, (*plain)(r))
}

// MarshalJSON emits {"task": ...} in one append pass.
func (r ProposeRequest) MarshalJSON() ([]byte, error) {
	b := r.Task.AppendJSON(append(make([]byte, 0, 96), `{"task":`...))
	return append(b, '}'), nil
}

// ProposeResponse reports an admission verdict.
type ProposeResponse struct {
	// Admitted reports whether the task was staged (pending commit).
	Admitted bool       `json:"admitted"`
	Result   ResultJSON `json:"result"`
	// Utilization is the session utilization including pending tasks
	// after this proposal.
	Utilization float64 `json:"utilization"`
	Committed   int     `json:"committed"`
	Pending     int     `json:"pending"`
	// Escalated reports that a full analyzer run decided this proposal
	// instead of the incremental fast path.
	Escalated bool `json:"escalated,omitempty"`
	// Path names the decision path: "gate" (utilization rejection), "fast"
	// (incremental certificate) or "cascade" (full escalation).
	Path string `json:"path,omitempty"`
}

// MarshalJSON emits the reply in one append pass, byte-identical to
// encoding/json's reflection over the struct tags.
func (r ProposeResponse) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 192), '{')
	b = strconv.AppendBool(workload.AppendKey(b, "admitted"), r.Admitted)
	b = r.Result.appendJSON(workload.AppendKey(b, "result"))
	b, err := workload.AppendFloat(workload.AppendKey(b, "utilization"), r.Utilization)
	if err != nil {
		return nil, err
	}
	b = strconv.AppendInt(workload.AppendKey(b, "committed"), int64(r.Committed), 10)
	b = strconv.AppendInt(workload.AppendKey(b, "pending"), int64(r.Pending), 10)
	if r.Escalated {
		b = append(workload.AppendKey(b, "escalated"), "true"...)
	}
	b = appendOptString(b, "path", r.Path)
	return append(b, '}'), nil
}

// ProposeBatchRequest stages several tasks in one round trip. The tasks
// are decided in order, each seeing the ones staged before it; the whole
// array is validated up front, so a malformed task fails the request
// before any state changes.
type ProposeBatchRequest struct {
	Tasks []WorkloadTask `json:"tasks"`
}

// ProposeBatchResponse reports one verdict per proposed task, in request
// order.
type ProposeBatchResponse struct {
	Results []ProposeResponse `json:"results"`
}

// CommitResponse reports a commit or rollback.
type CommitResponse struct {
	// Moved is the number of pending tasks committed or rolled back.
	Moved       int     `json:"moved"`
	Committed   int     `json:"committed"`
	Utilization float64 `json:"utilization"`
}

// MarshalJSON emits the reply in one append pass, byte-identical to
// encoding/json's reflection over the struct tags.
func (r CommitResponse) MarshalJSON() ([]byte, error) {
	b := strconv.AppendInt(append(make([]byte, 0, 64), `{"moved":`...), int64(r.Moved), 10)
	b = strconv.AppendInt(workload.AppendKey(b, "committed"), int64(r.Committed), 10)
	b, err := workload.AppendFloat(workload.AppendKey(b, "utilization"), r.Utilization)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// PartitionRequest asks for a feasible placement of a partitioned
// workload onto its processors. On the wire the workload is flattened
// into the request object: {"name": ..., "model": "partitioned",
// "processors": [...], "tasks": [...], "analyzer": ..., "options":
// {...}, "heuristics": [...], "workers": ...}.
type PartitionRequest struct {
	// Name optionally labels the workload in logs and responses.
	Name string
	// Workload is the partitioned workload to place.
	Workload Workload
	// Analyzer names the per-bin feasibility test; empty selects the
	// cascade.
	Analyzer string
	// Options tune the per-bin tests.
	Options OptionsJSON
	// Heuristics orders the placement strategies tried ("first-fit",
	// "worst-fit", "balance"); empty tries all three in that order.
	Heuristics []string
	// Workers is ignored: a placement runs on the request's goroutine.
	//
	// Deprecated: leave it 0; it is deleted once no caller names it.
	Workers int
}

// UnmarshalJSON flattens the workload out of the request object.
func (r *PartitionRequest) UnmarshalJSON(data []byte) error {
	*r = PartitionRequest{}
	return workload.DecodeRequest(data, &r.Workload,
		workload.Field{Name: "name", Dst: &r.Name},
		workload.Field{Name: "analyzer", Dst: &r.Analyzer},
		workload.Field{Name: "options", Dst: &r.Options},
		workload.Field{Name: "heuristics", Dst: &r.Heuristics},
		workload.Field{Name: "workers", Dst: &r.Workers})
}

// MarshalJSON emits the flattened wire form in one append pass.
func (r PartitionRequest) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 128+r.Workload.EncodedSizeHint()), '{')
	b = appendOptString(b, "name", r.Name)
	b = appendWorkload(b, r.Workload)
	b = appendOptString(b, "analyzer", r.Analyzer)
	b = r.Options.appendMember(b)
	if len(r.Heuristics) > 0 {
		b = append(workload.AppendKey(b, "heuristics"), '[')
		for i, h := range r.Heuristics {
			if i > 0 {
				b = append(b, ',')
			}
			b = workload.AppendString(b, h)
		}
		b = append(b, ']')
	}
	b = appendOptInt(b, "workers", int64(r.Workers))
	return append(b, '}'), nil
}

// PartitionResponse reports a placement run: the proven placement with
// its per-processor verdicts, or the counterexample trail.
type PartitionResponse struct {
	Name string `json:"name,omitempty"`
	// Model echoes "partitioned".
	Model string `json:"model"`
	// Analyzer names the per-bin test that verified the placement.
	Analyzer string `json:"analyzer"`
	partition.Placement
	// WallNS is the whole placement's wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// MarshalJSON emits the reply in one append pass, byte-identical to
// encoding/json's reflection over the struct tags: the embedded
// Placement's members sit between analyzer and wall_ns. Placement itself
// has no MarshalJSON, which PartitionResponse would promote.
func (r PartitionResponse) MarshalJSON() ([]byte, error) {
	pl := &r.Placement
	b := append(make([]byte, 0, 256+8*len(pl.Assignment)+160*len(pl.Processors)+128*len(pl.Attempts)), '{')
	b = appendOptString(b, "name", r.Name)
	b = workload.AppendString(workload.AppendKey(b, "model"), r.Model)
	b = workload.AppendString(workload.AppendKey(b, "analyzer"), r.Analyzer)
	b = strconv.AppendBool(workload.AppendKey(b, "feasible"), pl.Feasible)
	b = appendOptString(b, "heuristic", string(pl.Heuristic))
	if len(pl.Assignment) > 0 {
		b = workload.AppendInts(workload.AppendKey(b, "assignment"), pl.Assignment)
	}
	if len(pl.Processors) > 0 {
		b = append(workload.AppendKey(b, "processors"), '[')
		for i := range pl.Processors {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendProcessorReport(b, &pl.Processors[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if len(pl.Attempts) > 0 {
		b = append(workload.AppendKey(b, "attempts"), '[')
		for i := range pl.Attempts {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendAttempt(b, &pl.Attempts[i])
		}
		b = append(b, ']')
	}
	if pl.Counterexample != nil {
		b = appendAttempt(workload.AppendKey(b, "counterexample"), pl.Counterexample)
	}
	st := pl.Stats
	b = strconv.AppendUint(append(workload.AppendKey(b, "stats"), `{"bin_checks":`...), st.BinChecks, 10)
	b = strconv.AppendUint(workload.AppendKey(b, "cache_hits"), st.CacheHits, 10)
	b = strconv.AppendUint(workload.AppendKey(b, "gate_rejections"), st.GateRejections, 10)
	if st.Promotions != 0 {
		b = strconv.AppendUint(workload.AppendKey(b, "promotions"), st.Promotions, 10)
	}
	b = strconv.AppendInt(workload.AppendKey(append(b, '}'), "wall_ns"), r.WallNS, 10)
	return append(b, '}'), nil
}

// appendProcessorReport appends one bin of a placement as json.Marshal
// writes it.
func appendProcessorReport(b []byte, p *partition.ProcessorReport) ([]byte, error) {
	b = strconv.AppendInt(append(b, `{"processor":`...), int64(p.Index), 10)
	b = appendOptString(b, "name", p.Name)
	b = strconv.AppendInt(workload.AppendKey(b, "speed"), p.Speed, 10)
	b = workload.AppendInts(workload.AppendKey(b, "tasks"), p.Tasks)
	b, err := workload.AppendFloat(workload.AppendKey(b, "utilization"), p.Utilization)
	if err != nil {
		return nil, err
	}
	b = workload.AppendString(workload.AppendKey(b, "utilization_exact"), p.UtilizationExact)
	b = workload.AppendString(workload.AppendKey(b, "verdict"), p.Verdict)
	b = appendOptInt(b, "iterations", p.Iterations)
	b = appendOptInt(b, "wall_ns", p.WallNS)
	return append(b, '}'), nil
}

// appendAttempt appends one failed heuristic's trail as json.Marshal
// writes it.
func appendAttempt(b []byte, a *partition.Attempt) []byte {
	b = workload.AppendString(append(b, `{"heuristic":`...), string(a.Heuristic))
	b = strconv.AppendInt(workload.AppendKey(b, "placed"), int64(a.Placed), 10)
	b = strconv.AppendInt(workload.AppendKey(b, "failed_task"), int64(a.FailedTask), 10)
	b = appendOptString(b, "failed_task_name", a.FailedTaskName)
	b = workload.AppendKey(b, "rejections")
	if a.Rejections == nil {
		return append(b, "null}"...)
	}
	b = append(b, '[')
	for i, rj := range a.Rejections {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"processor":`...), int64(rj.Processor), 10)
		b = workload.AppendString(workload.AppendKey(b, "reason"), rj.Reason)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendWorkload appends the members a set or a partition request
// flattens its workload into: the model unless sporadic, a non-empty
// processor set, and the task array.
func appendWorkload(b []byte, w Workload) []byte {
	b = appendOptString(b, "model", string(w.WireModel()))
	if len(w.Processors) > 0 {
		b = workload.AppendProcessors(workload.AppendKey(b, "processors"), w.Processors)
	}
	return w.AppendTasks(workload.AppendKey(b, "tasks"))
}

// appendOptString appends a string member that omitempty drops when
// empty.
func appendOptString(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return workload.AppendString(workload.AppendKey(b, key), s)
}

// appendOptInt appends an integer member that omitempty drops when zero.
func appendOptInt(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(workload.AppendKey(b, key), v, 10)
}

// WireVersion identifies the request/response schema generation served
// under /v1.
const WireVersion = "edf.wire.v1"

// SchemaResponse describes what this server speaks: the wire-schema
// version, the workload models it accepts, the analyzer registry and
// the partition heuristics.
type SchemaResponse struct {
	WireVersion string         `json:"wire_version"`
	Models      []string       `json:"models"`
	Analyzers   []AnalyzerJSON `json:"analyzers"`
	Heuristics  []string       `json:"heuristics"`
}

// AnalyzerJSON describes one registered analyzer.
type AnalyzerJSON struct {
	Name     string `json:"name"`
	Label    string `json:"label"`
	Kind     string `json:"kind"`
	Blocking bool   `json:"blocking"`
	Events   bool   `json:"events"`
}

// ErrorResponse is the uniform error body: the wire form of the typed
// *Error. The "error" key has carried the message since the first wire
// schema and always will, so clients that predate the typed shape keep
// decoding; code/message/owner/retryable are the typed fields.
type ErrorResponse struct {
	Error     string `json:"error"`
	Code      string `json:"code,omitempty"`
	Message   string `json:"message,omitempty"`
	Owner     string `json:"owner,omitempty"`
	Retryable bool   `json:"retryable,omitempty"`
}

// Err converts a decoded wire body back to the typed error, tolerating
// legacy bodies that carry only the "error" key: the message falls back
// to it, and code/retryable are derived from the HTTP status.
func (e ErrorResponse) Err(status int) *Error {
	msg := e.Message
	if msg == "" {
		msg = e.Error
	}
	code := e.Code
	if code == "" {
		code = CodeForStatus(status)
	}
	return &Error{
		Code:      code,
		Message:   msg,
		Owner:     e.Owner,
		Retryable: e.Retryable || RetryableStatus(status),
	}
}
