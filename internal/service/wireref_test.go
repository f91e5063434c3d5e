package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/workload"
)

// The reference decoders below are the request decoders that predate the
// one-pass walker, kept verbatim in behaviour as the oracle of
// FuzzRequestJSON and BenchmarkWireDecode: every body must be accepted by
// the walker exactly when json.Unmarshal accepts it into the reference
// type, and decode to a reflect.DeepEqual value. Each pass re-validates
// and re-scans the body, which is what the walker replaced.

// refWorkload decodes a workload in two steps: the task and processor
// arrays are copied into RawMessages, then decoded once the model is
// known.
type refWorkload struct{ W workload.Workload }

func (w *refWorkload) UnmarshalJSON(data []byte) error {
	var aux struct {
		Model      string          `json:"model"`
		Tasks      json.RawMessage `json:"tasks"`
		Processors json.RawMessage `json:"processors"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	m, err := workload.ParseModel(aux.Model)
	if err != nil {
		return err
	}
	w.W = workload.Workload{Model: m}
	if m == workload.Partitioned && len(aux.Processors) != 0 && string(aux.Processors) != "null" {
		if err := json.Unmarshal(aux.Processors, &w.W.Processors); err != nil {
			return fmt.Errorf("workload: processors: %w", err)
		}
	}
	if len(aux.Tasks) == 0 || string(aux.Tasks) == "null" {
		return nil
	}
	switch m {
	case workload.Events:
		return json.Unmarshal(aux.Tasks, &w.W.Events)
	case workload.Partitioned:
		return json.Unmarshal(aux.Tasks, &w.W.PartTasks)
	default:
		return json.Unmarshal(aux.Tasks, &w.W.Tasks)
	}
}

// refAnalyzeRequest decodes the request's own fields in one pass and its
// workload in another.
type refAnalyzeRequest struct{ R AnalyzeRequest }

func (r *refAnalyzeRequest) UnmarshalJSON(data []byte) error {
	var aux struct {
		Name     string      `json:"name,omitempty"`
		Analyzer string      `json:"analyzer,omitempty"`
		Options  OptionsJSON `json:"options,omitzero"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	var w refWorkload
	err := json.Unmarshal(data, &w)
	r.R = AnalyzeRequest{Name: aux.Name, Workload: w.W, Analyzer: aux.Analyzer, Options: aux.Options}
	return err
}

// refPartitionRequest decodes the request's own fields in one pass and
// its workload in another.
type refPartitionRequest struct{ R PartitionRequest }

func (r *refPartitionRequest) UnmarshalJSON(data []byte) error {
	var aux struct {
		Name       string      `json:"name,omitempty"`
		Analyzer   string      `json:"analyzer,omitempty"`
		Options    OptionsJSON `json:"options,omitzero"`
		Heuristics []string    `json:"heuristics,omitempty"`
		Workers    int         `json:"workers,omitempty"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	var w refWorkload
	err := json.Unmarshal(data, &w)
	r.R = PartitionRequest{Name: aux.Name, Workload: w.W, Analyzer: aux.Analyzer,
		Options: aux.Options, Heuristics: aux.Heuristics, Workers: aux.Workers}
	return err
}

// refSessionRequest decodes the request's own fields in one pass and its
// workload in another.
type refSessionRequest struct{ R SessionRequest }

func (r *refSessionRequest) UnmarshalJSON(data []byte) error {
	var aux struct {
		Analyzer string      `json:"analyzer,omitempty"`
		Options  OptionsJSON `json:"options,omitzero"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	var w refWorkload
	err := json.Unmarshal(data, &w)
	r.R = SessionRequest{Analyzer: aux.Analyzer, Options: aux.Options, Workload: w.W}
	return err
}

// refWorkloadSet decodes the set's name in one pass and its workload in
// another.
type refWorkloadSet struct{ S WorkloadSet }

func (s *refWorkloadSet) UnmarshalJSON(data []byte) error {
	var aux struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	var w refWorkload
	err := json.Unmarshal(data, &w)
	s.S = WorkloadSet{Name: aux.Name, Workload: w.W}
	return err
}

// refTask is the proposal task's stream probe followed by a decode of the
// whole object as the probed task type.
type refTask struct{ T workload.Task }

func (t *refTask) UnmarshalJSON(data []byte) error {
	var probe struct {
		Stream json.RawMessage `json:"stream"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return err
	}
	if probe.Stream != nil {
		var et eventstream.Task
		err := json.Unmarshal(data, &et)
		t.T = workload.Task{Event: &et}
		return err
	}
	var st model.Task
	err := json.Unmarshal(data, &st)
	t.T = workload.Task{Sporadic: &st}
	return err
}

// The reference encoders below are the MarshalJSON bodies that predate
// the one-pass appenders, kept verbatim in behaviour as the oracle of
// TestWireEncodeMatchesReference, FuzzWireEncode and BenchmarkWireEncode:
// json.Marshal of a ref value writes exactly what json.Marshal of the
// wrapped value wrote before, reflection over an anonymous struct plus
// encoding/json's compaction of that output. The replies had no
// MarshalJSON; json.Marshal of the method-free plain copies of their
// types is their reference. The same plain types are the reference of
// the one-pass reply decode: json.Unmarshal into them is the decode the
// replies had before their UnmarshalJSON (FuzzReplyJSON).

// refTasksJSON is the task array a request flattened next to its model.
func refTasksJSON(w workload.Workload) any {
	switch w.Kind() {
	case workload.Events:
		return w.Events
	case workload.Partitioned:
		return w.PartTasks
	}
	return w.Tasks
}

func (w refWorkload) MarshalJSON() ([]byte, error) {
	switch w.W.Kind() {
	case workload.Events:
		return json.Marshal(struct {
			Model workload.Model     `json:"model"`
			Tasks []eventstream.Task `json:"tasks"`
		}{workload.Events, w.W.Events})
	case workload.Partitioned:
		return json.Marshal(struct {
			Model      workload.Model             `json:"model"`
			Processors []workload.Processor       `json:"processors"`
			Tasks      []workload.PartitionedTask `json:"tasks"`
		}{workload.Partitioned, w.W.Processors, w.W.PartTasks})
	}
	return json.Marshal(struct {
		Tasks model.TaskSet `json:"tasks"`
	}{w.W.Tasks})
}

func (r refAnalyzeRequest) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name     string         `json:"name,omitempty"`
		Model    workload.Model `json:"model,omitempty"`
		Tasks    any            `json:"tasks"`
		Analyzer string         `json:"analyzer,omitempty"`
		Options  OptionsJSON    `json:"options,omitzero"`
	}{r.R.Name, r.R.Workload.WireModel(), refTasksJSON(r.R.Workload), r.R.Analyzer, r.R.Options})
}

func (r refPartitionRequest) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name       string               `json:"name,omitempty"`
		Model      workload.Model       `json:"model,omitempty"`
		Processors []workload.Processor `json:"processors,omitempty"`
		Tasks      any                  `json:"tasks"`
		Analyzer   string               `json:"analyzer,omitempty"`
		Options    OptionsJSON          `json:"options,omitzero"`
		Heuristics []string             `json:"heuristics,omitempty"`
		Workers    int                  `json:"workers,omitempty"`
	}{r.R.Name, r.R.Workload.WireModel(), r.R.Workload.Processors, refTasksJSON(r.R.Workload),
		r.R.Analyzer, r.R.Options, r.R.Heuristics, r.R.Workers})
}

func (r refSessionRequest) MarshalJSON() ([]byte, error) {
	var tasks any
	if r.R.Workload.Len() > 0 {
		tasks = refTasksJSON(r.R.Workload)
	}
	return json.Marshal(struct {
		Analyzer string         `json:"analyzer,omitempty"`
		Options  OptionsJSON    `json:"options,omitzero"`
		Model    workload.Model `json:"model,omitempty"`
		Tasks    any            `json:"tasks,omitempty"`
	}{r.R.Analyzer, r.R.Options, r.R.Workload.WireModel(), tasks})
}

func (s refWorkloadSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Name       string               `json:"name,omitempty"`
		Model      workload.Model       `json:"model,omitempty"`
		Processors []workload.Processor `json:"processors,omitempty"`
		Tasks      any                  `json:"tasks"`
	}{s.S.Name, s.S.Workload.WireModel(), s.S.Workload.Processors, refTasksJSON(s.S.Workload)})
}

func (t refTask) MarshalJSON() ([]byte, error) {
	switch {
	case t.T.Event != nil:
		return json.Marshal(t.T.Event)
	case t.T.Sporadic != nil:
		return json.Marshal(t.T.Sporadic)
	default:
		return []byte("null"), nil
	}
}

// refProposeRequest is ProposeRequest as reflection encoded it, its task
// through the reference task encoder.
type refProposeRequest struct {
	Task refTask `json:"task"`
}

type (
	plainAnalyzeResponse   AnalyzeResponse
	plainProposeResponse   ProposeResponse
	plainPartitionResponse PartitionResponse
	plainSessionResponse   SessionResponse
	plainCommitResponse    CommitResponse
)
