package engine

import (
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// refWorkload is the workload decoder that predates the one-pass walker,
// kept as FuzzWorkloadJSON's reference: it copies the task and processor
// arrays into RawMessages and decodes them once the model is known.
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

// FuzzWorkloadJSON decodes arbitrary bytes as a workload of any of the
// three models. Differentially, the one-pass decoder, called directly
// and through json.Unmarshal, must accept the bytes exactly when the
// reference decoder does, into a reflect.DeepEqual workload (nil versus
// empty slices included). A workload that Validate accepts must keep its
// fingerprint through an encode/decode round trip, and each of its
// event tasks must lower to demand sources whose first deadline is
// positive — the precondition of every demand walk.
func FuzzWorkloadJSON(f *testing.F) {
	for _, seed := range []string{
		// The README's analyze bodies, one per model.
		`{"tasks":[{"wcet":2,"deadline":8,"period":10},{"wcet":3,"deadline":15,"period":15}]}`,
		`{"model":"events","tasks":[{"wcet":2,"deadline":9,"stream":[{"cycle":10,"offset":0}]},` +
			`{"wcet":1,"deadline":24,"stream":[{"cycle":50,"offset":0},{"cycle":50,"offset":4},{"cycle":50,"offset":8}]}]}`,
		`{"model":"partitioned","processors":[{"name":"p0"},{"name":"p1","speed":2}],` +
			`"tasks":[{"name":"a","wcet":6,"deadline":10,"period":10},{"name":"b","wcet":6,"deadline":10,"period":10},` +
			`{"name":"pin","wcet":2,"deadline":10,"period":10,"affinity":[0]}]}`,
		// An element whose offset plus deadline overflows int64.
		`{"model":"events","tasks":[{"wcet":3,"deadline":10,"stream":[{"cycle":0,"offset":9223372036854775803}]},` +
			`{"wcet":1,"deadline":10,"stream":[{"cycle":10,"offset":0}]}]}`,
		// Folded keys, repeated keys, nulls, escapes and number forms.
		`{"TASKS":[{"WCET":1,"Deadline":4,"ſelf_ſuſpenſion":1,"period":4}],"MODEL":"sporadic"}`,
		`{"tasks":[{"wcet":1,"deadline":4,"period":4,"critical_section":3}],"tasks":[{"wcet":1,"deadline":4,"period":4}]}`,
		`{"tasks":[{"wcet":1,"deadline":4,"period":4}],"tasks":null}`,
		`{"model":"events","model":null,"tasks":[{"wcet":1,"deadline":4,"period":"x","stream":[{"cycle":4}]}]}`,
		`{"m\u006fdel":"p\u0061rtitioned","processors":[{"speed":2},null],` +
			`"tasks":[null,{"n\u0061me":"\u00e9\ud800","wcet":-0,"affinity":[1],"affinity":[null,0]}]}`,
		`{"tasks":[{"wcet":1e2,"deadline":1.0,"period":99999999999999999999}]}`,
		`{"tasks":[{"wcet":9223372036854775807,"deadline":-9223372036854775808,"period":4,"stream":5}],"processors":7}`,
		`{"tas\u212as":[{"wcet":1,"deadline":4,"period":4,"name":"a\"]},{\\"}],"\"tasks\"":5}`,
		`{"tasks":[]}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ref refWorkload
		refErr := json.Unmarshal(data, &ref)
		var direct workload.Workload
		directErr := direct.UnmarshalJSON(data)
		var w workload.Workload
		err := json.Unmarshal(data, &w)
		for _, got := range []struct {
			path string
			w    workload.Workload
			err  error
		}{{"UnmarshalJSON", direct, directErr}, {"json.Unmarshal", w, err}} {
			if (got.err == nil) != (refErr == nil) {
				t.Fatalf("%s of %q: error %v, reference error %v", got.path, data, got.err, refErr)
			}
			if got.err == nil && !reflect.DeepEqual(got.w, ref.W) {
				t.Fatalf("%s of %q:\n got %#v\nwant %#v", got.path, data, got.w, ref.W)
			}
		}
		if err != nil || w.Validate() != nil {
			return
		}
		fp, ok := WorkloadFingerprint(w, "cascade", core.Options{})
		if !ok {
			t.Fatalf("no fingerprint for accepted workload %+v", w)
		}
		enc, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("encoding accepted workload: %v", err)
		}
		var back workload.Workload
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("decoding re-encoded workload %s: %v", enc, err)
		}
		if fp2, _ := WorkloadFingerprint(back, "cascade", core.Options{}); fp2 != fp {
			t.Fatalf("fingerprint %s became %s through %s", fp, fp2, enc)
		}
		for i, et := range w.Events {
			for j, src := range et.AppendSources(nil) {
				if d := src.JobDeadline(1); d <= 0 {
					t.Fatalf("event task %d element %d: first deadline %d", i, j, d)
				}
			}
		}
	})
}
