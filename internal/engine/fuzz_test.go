package engine

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// FuzzWorkloadJSON decodes arbitrary bytes as a workload of any of the
// three models. A workload that Validate accepts must keep its
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w workload.Workload
		if err := json.Unmarshal(data, &w); err != nil || w.Validate() != nil {
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
