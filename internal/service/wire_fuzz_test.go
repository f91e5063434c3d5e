package service

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
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

// rewalkBodies take the paths on which the request walk types a span
// again after the walk, or not at all: a model named after its tasks, a
// repeated "tasks" whose earlier occurrence fails to type, a typing error
// before a syntax error, task arrays longer than the walk's stack buffer,
// and an unknown task member nested to encoding/json's depth limit and
// one level past it.
var rewalkBodies = func() []string {
	const task = `{"wcet":1,"deadline":4,"period":4}`
	tasks := func(n int) string {
		return `{"tasks":[` + strings.TrimSuffix(strings.Repeat(task+",", n), ",") + `]}`
	}
	// The object, the tasks array and the task are three of the 10000
	// levels encoding/json allows.
	deep := func(levels int) string {
		return `{"tasks":[{"wcet":1,"x":` + strings.Repeat("[", levels) + strings.Repeat("]", levels) + `}]}`
	}
	return []string{
		`{"tasks":[{"wcet":1,"deadline":4,"period":4,"affinity":[0,1]},{"wcet":2,"affinity":[1]}],` +
			`"processors":[{},{"speed":2}],"model":"partitioned"}`,
		`{"processors":[{}],"tasks":[{"wcet":1,"affinity":[0]}],"model":"events","model":"partitioned"}`,
		`{"model":"partitioned","tasks":[{"wcet":1,"affinity":[0]}],"model":"sporadic"}`,
		`{"model":"partitioned","tasks":[{"wcet":1,"affinity":[0]}],"model":"sporadic","tasks":[{"wcet":2}]}`,
		`{"tasks":[{"wcet":1}],"model":"partitioned","processors":[{}],"tasks":[{"wcet":2,"affinity":[0]}]}`,
		`{"tasks":[{"wcet":"x"}],"tasks":[` + task + `]}`,
		`{"model":"partitioned","processors":[{}],"tasks":[{"affinity":"0"}],"tasks":[{"wcet":1,"affinity":[0]}]}`,
		`{"tasks":[` + task + `],"tasks":[{"wcet":"x"}]}`,
		`{"tasks":[{"wcet":"x"}],"name":"a",}`,
		`{"model":"partitioned","tasks":[{"wcet":1.5}],"processors":[{}]`,
		tasks(65), tasks(200),
		deep(10000 - 3), deep(10000 - 2),
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
	bodies := append(append(wireCompatBodies(f), readmeBodies...), typedWalkBodies...)
	for _, body := range append(bodies, rewalkBodies...) {
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
// a 25-task sporadic analyze body, of a 100-task session open, of a
// one-task proposal and of the two partition bodies (8 processors and 24
// tasks with 12 affinities, 16 processors and 64 tasks with 32). The
// nested decoders made 34 for the analyze body; the walk leaves the
// request value and its task slice, and so it does for the session's 100
// tasks, which overflow the walk's stack buffer. The proposal went
// through json.Unmarshal's reflection and made 7; its own walk leaves the
// request value and the task. The partition body made 54 while
// json.Unmarshal typed the processors and every affinity; the walk leaves
// the request value, the processor and task slices and one slice per
// affinity, and no longer copies the model name. The 64-task body is
// held at the 36 the walk made before it typed each integer in its check.
func TestWireDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		max  float64
	}{{"analyze-25", 10}, {"session-100", 2}, {"propose-1", 2}, {"partition-m8-24", 15}, {"partition-m16-64", 36}} {
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

// TestPrefixesAnswerSyntaxErrors decodes every proper prefix of every
// benchmark request and reply body and of every request and 200 reply of
// TestWireCompat's table through DecodeJSON, as the type the whole body
// decodes as. The walk checks each byte as it types it, so a cut
// anywhere, inside a task array, a number or a string, must answer
// encoding/json's syntax error text exactly. A prefix that is itself
// valid JSON, a reply without its trailing newline, is left to the
// differential fuzzers.
func TestPrefixesAnswerSyntaxErrors(t *testing.T) {
	check := func(name string, body []byte, decode func([]byte) error) {
		for n := range len(body) {
			p := body[:n]
			if json.Valid(p) {
				continue
			}
			want := json.Unmarshal(p, new(any))
			if err := decode(p); err == nil || err.Error() != want.Error() {
				t.Fatalf("%s cut at %d (%q): error %v, want %v", name, n, p, err, want)
			}
		}
	}
	for _, wb := range append(wireBodies(), replyBodies()...) {
		check(wb.name, wb.body, wb.decode)
	}
	decoder := func(v func() any) func([]byte) error {
		return func(b []byte) error { return DecodeJSON(b, v()) }
	}
	requests := map[string]func([]byte) error{
		"analyze":   decoder(func() any { return new(AnalyzeRequest) }),
		"partition": decoder(func() any { return new(PartitionRequest) }),
		"propose":   decoder(func() any { return new(ProposeRequest) }),
	}
	replies := map[string]func([]byte) error{
		"analyze":   decoder(func() any { return new(AnalyzeResponse) }),
		"partition": decoder(func() any { return new(PartitionResponse) }),
		"propose":   decoder(func() any { return new(ProposeResponse) }),
	}
	for _, r := range wireCompatRows(t) {
		check(r.Name, []byte(r.Body), requests[r.Route])
		if r.Reply != "" {
			check(r.Name+" reply", []byte(r.Reply), replies[r.Route])
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
