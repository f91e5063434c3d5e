package service

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// readmeBodies are request bodies of the README's curl examples.
var readmeBodies = []string{
	`{"tasks": [{"wcet":2,"deadline":8,"period":10},{"wcet":3,"deadline":15,"period":15}]}`,
	`{"model": "events", "tasks": [{"wcet":2,"deadline":9,"stream":[{"cycle":10,"offset":0}]},
	  {"wcet":1,"deadline":24,"stream":[{"cycle":50,"offset":0},{"cycle":50,"offset":4},{"cycle":50,"offset":8}]}]}`,
	`{"name":"a","tasks":[{"wcet":2,"deadline":8,"period":10}]}`,
	`{"name":"e","model":"events","tasks":[{"wcet":2,"deadline":9,"stream":[{"cycle":10,"offset":0}]}]}`,
	`{}`,
	`{"wcet":10,"deadline":90,"period":100}`,
	`{"model": "partitioned", "processors": [{"name":"p0"}, {"name":"p1","speed":2}],
	  "tasks": [{"name":"a","wcet":6,"deadline":10,"period":10},{"name":"b","wcet":6,"deadline":10,"period":10},
	            {"name":"pin","wcet":2,"deadline":10,"period":10,"affinity":[0]}]}`,
	`{"model":"partitioned","processors":[{},{}],"tasks":[{"wcet":1,"deadline":4,"period":4,"affinity":[1],"affinity":[null,null]}],
	  "heuristics":["balance","first-fit"],"heuristics":[null],"workers":2,"analyzer":"devi","options":{"max_level":3}}`,
}

// wireCompatRow is one row of TestWireCompat's table (internal/cluster):
// a request body and, for a 200, the reply pinned for it.
type wireCompatRow struct {
	Name  string `json:"name"`
	Route string `json:"route"`
	Body  string `json:"body"`
	Reply string `json:"reply"`
}

// wireCompatRows reads TestWireCompat's table.
func wireCompatRows(t testing.TB) []wireCompatRow {
	raw, err := os.ReadFile("testdata/wire_compat.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []wireCompatRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// wireCompatBodies returns the request bodies of TestWireCompat's table.
func wireCompatBodies(t testing.TB) []string {
	rows := wireCompatRows(t)
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Body
	}
	return out
}

// FuzzRequestJSON decodes every input as each request type that carries
// a workload, and as a proposal task, through the daemons' decoder
// (DecodeJSON) and through json.Unmarshal (the path of nested sets,
// proposal tasks and journal replay). Both must accept the input exactly
// when json.Unmarshal accepts it into the type's reference decoder, and
// decode it to a reflect.DeepEqual value, nil-versus-empty included.
func FuzzRequestJSON(f *testing.F) {
	for _, body := range append(wireCompatBodies(f), readmeBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var ra refAnalyzeRequest
		differential(t, data, json.Unmarshal(data, &ra), ra.R)
		var rp refPartitionRequest
		differential(t, data, json.Unmarshal(data, &rp), rp.R)
		var rs refSessionRequest
		differential(t, data, json.Unmarshal(data, &rs), rs.R)
		var rw refWorkloadSet
		differential(t, data, json.Unmarshal(data, &rw), rw.S)
		var rt refTask
		differential(t, data, json.Unmarshal(data, &rt), rt.T)
	})
}

// differential decodes data as a T on both paths and compares each
// outcome with the reference's.
func differential[T any](t *testing.T, data []byte, refErr error, want T) {
	t.Helper()
	for _, path := range []struct {
		name   string
		decode func([]byte, any) error
	}{{"DecodeJSON", DecodeJSON}, {"json.Unmarshal", json.Unmarshal}} {
		var got T
		err := path.decode(data, &got)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%T via %s of %q: error %v, reference error %v", got, path.name, data, err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T via %s of %q:\n got %#v\nwant %#v", got, path.name, data, got, want)
		}
	}
}

// TestWireDecodeAllocs bounds the allocations of the daemons' decode of
// a 25-task sporadic analyze body. The nested decoders made 34; the walk
// leaves the request value and its task slice. Race builds skip it:
// there json.Valid allocates too (see raceEnabled).
func TestWireDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("json.Valid allocates under the race detector")
	}
	body := wireBodies()[0].body
	allocs := testing.AllocsPerRun(100, func() {
		var req AnalyzeRequest
		if err := DecodeJSON(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Errorf("decoding a 25-task analyze body: %.0f allocs, want at most 10", allocs)
	}
}
