package service

import (
	"encoding/json"
	"fmt"
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

// MarshalJSON emits the flattened wire form; sporadic requests omit the
// model discriminator and stay byte-compatible with the pre-workload
// schema.
func (r AnalyzeRequest) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name     string         `json:"name,omitempty"`
		Model    workload.Model `json:"model,omitempty"`
		Tasks    any            `json:"tasks"`
		Analyzer string         `json:"analyzer,omitempty"`
		Options  OptionsJSON    `json:"options,omitzero"`
	}{r.Name, r.Workload.WireModel(), r.Workload.TasksJSON(), r.Analyzer, r.Options})
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

// MarshalJSON emits the flattened wire form.
func (s WorkloadSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name       string               `json:"name,omitempty"`
		Model      workload.Model       `json:"model,omitempty"`
		Processors []workload.Processor `json:"processors,omitempty"`
		Tasks      any                  `json:"tasks"`
	}{s.Name, s.Workload.WireModel(), s.Workload.Processors, s.Workload.TasksJSON()})
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

// MarshalJSON emits the flattened wire form. An empty seed still carries
// its model so event sessions can be opened without tasks.
func (r SessionRequest) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Analyzer string         `json:"analyzer,omitempty"`
		Options  OptionsJSON    `json:"options,omitzero"`
		Model    workload.Model `json:"model,omitempty"`
		Tasks    any            `json:"tasks,omitempty"`
	}{r.Analyzer, r.Options, r.Workload.WireModel(), tasksOrNil(r.Workload)})
}

// tasksOrNil omits the task array entirely for an empty seed.
func tasksOrNil(w Workload) any {
	if w.Len() == 0 {
		return nil
	}
	return w.TasksJSON()
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

// ProposeRequest stages one task into a session. The task is polymorphic:
// a "stream" key makes it an event-driven task, otherwise it is sporadic.
// Its model must match the session's.
type ProposeRequest struct {
	Task WorkloadTask `json:"task"`
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
	// Workers bounds the pool that verifies the final bins of a
	// placement; 0 selects the server default. Trials during the search
	// run on the request's goroutine.
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

// MarshalJSON emits the flattened wire form.
func (r PartitionRequest) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name       string               `json:"name,omitempty"`
		Model      workload.Model       `json:"model,omitempty"`
		Processors []workload.Processor `json:"processors,omitempty"`
		Tasks      any                  `json:"tasks"`
		Analyzer   string               `json:"analyzer,omitempty"`
		Options    OptionsJSON          `json:"options,omitzero"`
		Heuristics []string             `json:"heuristics,omitempty"`
		Workers    int                  `json:"workers,omitempty"`
	}{r.Name, r.Workload.WireModel(), r.Workload.Processors, r.Workload.TasksJSON(),
		r.Analyzer, r.Options, r.Heuristics, r.Workers})
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

// WireVersion identifies the request/response schema generation served
// under /v1.
const WireVersion = "edf.wire.v1"

// SchemaResponse describes what this server speaks: the wire-schema
// version, the workload models it accepts, the analyzer registry and
// the partition heuristics. The cluster proxy uses it to reject
// workload models its fleet cannot serve before forwarding.
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
