package service

import (
	"encoding/json"
	"errors"
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

// typedWalkBodies take each branch of the walk's typing of processors,
// affinities and integer fields, and each value it declines to
// json.Unmarshal.
var typedWalkBodies = func() []string {
	const one = `"tasks":[{"wcet":1,"deadline":4,"period":4}]`
	part := func(procs, rest string) string {
		return `{"model":"partitioned","processors":` + procs + `,` + rest + `}`
	}
	aff := func(members string) string {
		return part(`[{},{}]`, `"tasks":[{"wcet":1,"deadline":4,"period":4,`+members+`}]`)
	}
	return []string{
		// Affinities: empty, null, a null element, a fraction, and repeated
		// keys, which encoding/json merges in place, hidden capacity included.
		aff(`"affinity":[]`), aff(`"affinity":null`), aff(`"affinity":[null]`), aff(`"affinity":[1.0]`),
		aff(`"affinity":[0,1],"Affinity":[null]`),
		aff(`"affinity":[5,6,7],"affinity":[4],"affinity":[null,null,null,null]`),
		aff(`"affinity":null,"affinity":[1]`), aff(`"affinity":[1e0],"affinity":[1]`),
		aff(`"affinity":[99999999999999999999]`), aff(`"affinity":"0"`), aff(`"affinity":[[0]]`),
		// Processors: folded keys, an escaped and a non-ASCII name, speeds
		// of the wrong kind or out of range, null speeds and processors,
		// repeated and unknown keys, and arrays that are not arrays.
		part(`[{"Speed":2,"NAME":"p0"}]`, one), part(`[{"name":"p0\n"}]`, one),
		part(`[{"name":"π-core é"}]`, one), part("[{\"name\":\"\xff\"}]", one), part(`[{"speed":"2"}]`, one),
		part(`[{"speed":2,"speed":null}]`, one), part(`[null,{"speed":3}]`, one), part(`[{"speed":2.0}]`, one),
		part(`[{"speed":99999999999999999999}]`, one), part(`[{"name":5}]`, one), part(`[1]`, one),
		part(`[{"name":"a","name":null,"x":[1],"ſpeed":4}]`, one), part(`{}`, one), part(`[]`, one),
		part(`[{}],"processors":null`, one),
		// Integer fields: an exponent, a string, null and a repeated key.
		part(`[{}]`, one+`,"workers":1e0`), part(`[{}]`, one+`,"workers":"1"`),
		part(`[{}]`, one+`,"workers":2,"Workers":null`), part(`[{}]`, one+`,"workers":-0,"workers":3`),
	}
}()

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
// a workload, as a proposal and as a proposal task, through the daemons'
// decoder (DecodeJSON) and through json.Unmarshal (the path of nested
// sets, proposal tasks and journal replay). Both must accept the input
// exactly when json.Unmarshal accepts it into the type's reference
// decoder, and decode it to a reflect.DeepEqual value, nil-versus-empty
// included; where the reference answers a syntax error, both must answer
// its text.
func FuzzRequestJSON(f *testing.F) {
	for _, body := range append(append(wireCompatBodies(f), readmeBodies...), typedWalkBodies...) {
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
		var rq struct {
			Task refTask `json:"task"`
		}
		differential(t, data, json.Unmarshal(data, &rq), ProposeRequest{Task: rq.Task.T})
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
		checkSyntaxError(t, got, path.name, data, err, refErr)
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T via %s of %q:\n got %#v\nwant %#v", got, path.name, data, got, want)
		}
	}
}

// checkSyntaxError fails when the reference, json.Unmarshal, answered a
// syntax error and the decode under test did not answer its text.
// encoding/json checks a whole body before it types any of it, so a body
// with a type error and a syntax error answers the syntax error.
func checkSyntaxError(t testing.TB, got any, path string, data []byte, err, refErr error) {
	t.Helper()
	var se *json.SyntaxError
	if errors.As(refErr, &se) && (err == nil || err.Error() != refErr.Error()) {
		t.Fatalf("%T via %s of %q: error %v, reference syntax error %v", got, path, data, err, refErr)
	}
}

// TestWireDecodeAllocs bounds the allocations of the daemons' decode of
// a 25-task sporadic analyze body, of a one-task proposal and of the
// partition-cold-shaped body (8 processors, 24 tasks, 12 affinities).
// The nested decoders made 34 for the analyze body; the walk leaves the
// request value and its task slice. The proposal went through
// json.Unmarshal's reflection and made 7; its own walk leaves the request
// value and the task. The partition body made 54 while json.Unmarshal
// typed the processors and every affinity; the walk leaves the request
// value, the processor and task slices and one slice per affinity.
func TestWireDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		max  float64
	}{{"analyze-25", 10}, {"propose-1", 2}, {"partition-m8-24", 16}} {
		wb := requestBody(t, c.name)
		allocs := testing.AllocsPerRun(100, func() {
			if err := wb.decode(wb.body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("decoding %s: %.0f allocs, want at most %.0f", c.name, allocs, c.max)
		}
	}
}

// requestBody returns the decode benchmark's request body of the given name.
func requestBody(t testing.TB, name string) wireBody {
	for _, wb := range wireBodies() {
		if wb.name == name {
			return wb
		}
	}
	t.Fatalf("no request body %q", name)
	return wireBody{}
}
