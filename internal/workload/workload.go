package workload

import (
	"encoding/json"
	"fmt"
	"math/big"

	"repro/internal/eventstream"
	"repro/internal/model"
)

// Model discriminates the activation model of a workload.
type Model string

const (
	// Sporadic is the paper's base model: tasks (C, D, T) released at
	// most once per period. The empty model string means sporadic, so
	// payloads that predate the discriminator keep their meaning.
	Sporadic Model = "sporadic"
	// Events is the Gresser event-stream model: each task is (C, D) plus
	// an event stream of (cycle, offset) elements.
	Events Model = "events"
	// Partitioned is the partitioned multiprocessor model: sporadic tasks
	// with optional placement constraints to be bin-packed onto m
	// processors of (optionally heterogeneous) relative speeds, each bin
	// checked by a uniprocessor EDF test.
	Partitioned Model = "partitioned"
)

// ParseModel resolves the wire form of a model name. The empty string
// selects Sporadic.
func ParseModel(s string) (Model, error) {
	switch Model(s) {
	case "", Sporadic:
		return Sporadic, nil
	case Events:
		return Events, nil
	case Partitioned:
		return Partitioned, nil
	default:
		return "", fmt.Errorf("workload: unknown model %q (want %q, %q or %q)", s, Sporadic, Events, Partitioned)
	}
}

// Workload is a task set under one of the activation models. Exactly one
// of Tasks, Events and PartTasks is meaningful, selected by Model; the
// zero value is an empty sporadic workload.
type Workload struct {
	// Model selects the activation model; empty means Sporadic.
	Model Model
	// Tasks is the sporadic task set (Model == Sporadic).
	Tasks model.TaskSet
	// Events is the event-driven task set (Model == Events).
	Events []eventstream.Task
	// Processors is the processor set (Model == Partitioned).
	Processors []Processor
	// PartTasks is the partitioned task set (Model == Partitioned).
	PartTasks []PartitionedTask
}

// NewSporadic wraps a sporadic task set.
func NewSporadic(ts model.TaskSet) Workload {
	return Workload{Model: Sporadic, Tasks: ts}
}

// NewEvents wraps an event-driven task set.
func NewEvents(tasks []eventstream.Task) Workload {
	return Workload{Model: Events, Events: tasks}
}

// Kind returns the effective model, mapping the zero value to Sporadic.
func (w Workload) Kind() Model {
	switch w.Model {
	case Events:
		return Events
	case Partitioned:
		return Partitioned
	}
	return Sporadic
}

// IsZero reports whether the workload is entirely unset (no model, no
// tasks) — distinct from an explicitly empty sporadic workload.
func (w Workload) IsZero() bool {
	return w.Model == "" && w.Tasks == nil && w.Events == nil &&
		w.Processors == nil && w.PartTasks == nil
}

// Len returns the number of tasks under the effective model.
func (w Workload) Len() int {
	switch w.Kind() {
	case Events:
		return len(w.Events)
	case Partitioned:
		return len(w.PartTasks)
	}
	return len(w.Tasks)
}

// Validate reports the first structural problem of the workload. An empty
// workload is invalid under either model.
func (w Workload) Validate() error {
	switch w.Kind() {
	case Events:
		if len(w.Events) == 0 {
			return fmt.Errorf("workload: empty event-stream task set")
		}
		for i, t := range w.Events {
			if err := t.Validate(); err != nil {
				return fmt.Errorf("task %d: %w", i, err)
			}
		}
		return nil
	case Partitioned:
		return w.validatePartitioned()
	default:
		return w.Tasks.Validate()
	}
}

// Utilization returns the total utilization as an exact rational: Σ C/T
// for sporadic and partitioned tasks (the latter regardless of
// placement), Σ C · Σ 1/cycle per stream for event-driven tasks (the
// asymptotic demand density; one-shot elements contribute nothing).
func (w Workload) Utilization() *big.Rat {
	switch w.Kind() {
	case Events:
		u := new(big.Rat)
		for _, t := range w.Events {
			u.Add(u, eventTaskUtilization(t))
		}
		return u
	case Partitioned:
		return w.partitionedUtilization()
	}
	return w.Tasks.Utilization()
}

// Clone returns a deep copy: mutating the clone never affects the
// original.
func (w Workload) Clone() Workload {
	out := Workload{Model: w.Model}
	if w.Tasks != nil {
		out.Tasks = w.Tasks.Clone()
	}
	if w.Events != nil {
		out.Events = make([]eventstream.Task, len(w.Events))
		for i, t := range w.Events {
			t.Stream = append(eventstream.Stream(nil), t.Stream...)
			out.Events[i] = t
		}
	}
	w.clonePartitioned(&out)
	return out
}

// Concat appends v's tasks to a copy of w. Both workloads must share the
// effective model; partitioned workloads must also agree on the
// processor set, which stays as w's.
func (w Workload) Concat(v Workload) (Workload, error) {
	if w.Kind() != v.Kind() {
		return Workload{}, fmt.Errorf("workload: cannot concatenate %s and %s workloads", w.Kind(), v.Kind())
	}
	out := w.Clone()
	switch w.Kind() {
	case Events:
		out.Events = append(out.Events, v.Clone().Events...)
	case Partitioned:
		if len(w.Processors) != len(v.Processors) {
			return Workload{}, fmt.Errorf("workload: cannot concatenate partitioned workloads with %d and %d processors", len(w.Processors), len(v.Processors))
		}
		for i := range w.Processors {
			if w.Processors[i].EffectiveSpeed() != v.Processors[i].EffectiveSpeed() {
				return Workload{}, fmt.Errorf("workload: cannot concatenate partitioned workloads: processor %d speeds differ", i)
			}
		}
		out.PartTasks = append(out.PartTasks, v.Clone().PartTasks...)
	default:
		out.Tasks = append(out.Tasks, v.Tasks...)
	}
	return out, nil
}

// With returns a copy of w extended by one task of the same model. The
// caller must have checked the model (Task.Kind() == w.Kind()).
func (w Workload) With(t Task) Workload {
	out := w.Clone()
	out.Model = w.Kind()
	out.Append(t)
	return out
}

// Append adds t to w in place, sharing w's backing array like the
// built-in append. The caller must have checked the model
// (Task.Kind() == w.Kind()).
func (w *Workload) Append(t Task) {
	if t.Event != nil {
		w.Events = append(w.Events, *t.Event)
	} else {
		w.Tasks = append(w.Tasks, *t.Sporadic)
	}
}

// Slice returns tasks i through j-1 of a sporadic or event workload as a
// workload sharing w's memory, like a slice expression.
func (w Workload) Slice(i, j int) Workload {
	out := Workload{Model: w.Model}
	if w.Kind() == Events {
		out.Events = w.Events[i:j]
	} else {
		out.Tasks = w.Tasks[i:j]
	}
	return out
}

// MarshalJSON renders the workload in its wire form in one append pass.
// Sporadic workloads omit the discriminator so their payloads stay
// byte-compatible with the pre-workload schema; event and partitioned
// workloads carry their model, and partitioned ones their processors.
func (w Workload) MarshalJSON() ([]byte, error) {
	b := append(make([]byte, 0, 32+w.EncodedSizeHint()), '{')
	if m := w.WireModel(); m != "" {
		b = AppendString(AppendKey(b, "model"), string(m))
	}
	if w.Kind() == Partitioned {
		b = AppendProcessors(AppendKey(b, "processors"), w.Processors)
	}
	b = w.AppendTasks(AppendKey(b, "tasks"))
	return append(b, '}'), nil
}

// WireModel returns the discriminator value to emit next to AppendTasks:
// the model for event and partitioned workloads, empty (omittable) for
// sporadic ones.
func (w Workload) WireModel() Model {
	switch w.Kind() {
	case Events:
		return Events
	case Partitioned:
		return Partitioned
	}
	return ""
}

// Task is one task under either activation model — the element type of
// polymorphic propose endpoints. Exactly one field is set.
type Task struct {
	Sporadic *model.Task
	Event    *eventstream.Task
}

// SporadicTask wraps a sporadic task.
func SporadicTask(t model.Task) Task { return Task{Sporadic: &t} }

// EventTask wraps an event-driven task.
func EventTask(t eventstream.Task) Task { return Task{Event: &t} }

// Kind returns the task's model; an entirely unset task counts as
// sporadic (and fails Validate).
func (t Task) Kind() Model {
	if t.Event != nil {
		return Events
	}
	return Sporadic
}

// Validate reports the first structural problem of the task.
func (t Task) Validate() error {
	switch {
	case t.Event != nil:
		return t.Event.Validate()
	case t.Sporadic != nil:
		return t.Sporadic.Validate()
	default:
		return fmt.Errorf("workload: empty task")
	}
}

// Utilization returns the task's utilization as an exact rational.
func (t Task) Utilization() *big.Rat {
	if t.Event != nil {
		return eventTaskUtilization(*t.Event)
	}
	if t.Sporadic != nil {
		return t.Sporadic.Utilization()
	}
	return new(big.Rat)
}

// MarshalJSON renders whichever side is set, in one append pass.
func (t Task) MarshalJSON() ([]byte, error) {
	return t.AppendJSON(make([]byte, 0, 64)), nil
}

// AppendJSON appends the task's wire form: json.Marshal's bytes for an
// event task, the hand-encoded sporadic task, or null when neither side
// is set.
func (t Task) AppendJSON(dst []byte) []byte {
	switch {
	case t.Event != nil:
		b, _ := json.Marshal(t.Event) // strings and int64s always encode
		return append(dst, b...)
	case t.Sporadic != nil:
		return append(appendTaskFields(append(dst, '{'), t.Sporadic), '}')
	default:
		return append(dst, "null"...)
	}
}

// eventTaskUtilization is C · Σ 1/cycle over the task's stream.
func eventTaskUtilization(t eventstream.Task) *big.Rat {
	return new(big.Rat).Mul(big.NewRat(t.WCET, 1), t.Stream.Utilization())
}
