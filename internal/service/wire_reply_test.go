package service

import (
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/workload"
)

// readmeReplies are the reply bodies of the README's curl examples, the
// second with the README's elisions.
var readmeReplies = []string{
	`{"model":"sporadic","analyzer":"cascade",
	  "result":{"verdict":"feasible","iterations":4},
	  "wall_ns":23145,"cached":false,"fingerprint":"8ced8fd1..."}`,
	`{"model":"partitioned","analyzer":"cascade","feasible":true,
	  "heuristic":"first-fit","assignment":[0,1,0],
	  "processors":[{"processor":0,...,"verdict":"feasible","iterations":4},
	                {"processor":1,"speed":2,...,"verdict":"feasible",...}], ...}`,
}

// wireCompatReplies returns the 200 replies pinned in TestWireCompat's
// table, and an error body.
func wireCompatReplies(t testing.TB) []string {
	var out []string
	for _, r := range wireCompatRows(t) {
		if r.Reply != "" {
			out = append(out, r.Reply)
		}
	}
	er, err := EncodeJSON(ErrorFor(http.StatusNotFound, errors.New(`no session "x"`)).Response())
	if err != nil {
		t.Fatal(err)
	}
	return append(out, string(er)+"\n")
}

// FuzzReplyJSON decodes every input as each reply type with a one-pass
// UnmarshalJSON, through DecodeJSON (the typed client's path) and
// through json.Unmarshal (the path of replies nested in other values).
// Both must succeed exactly when json.Unmarshal into the type's
// method-free twin succeeds, and give a reflect.DeepEqual value, nil
// versus empty included, whether or not they succeed; where the twin's
// decode answers a syntax error, both must answer its text.
func FuzzReplyJSON(f *testing.F) {
	for _, body := range append(wireCompatReplies(f), readmeReplies...) {
		f.Add([]byte(body))
	}
	// Unknown members nested to encoding/json's depth limit and one level
	// past it, at the top of a reply and inside a processor report, where
	// the object, the array and the report take three of the levels.
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, levels := range []int{10000, 10001} {
		f.Add([]byte(`{"model":"sporadic","x":` + nest(levels-1) + `,"wall_ns":1}`))
		f.Add([]byte(`{"feasible":true,"processors":[{"processor":0,"x":` + nest(levels-3) + `}]}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplyDecode[AnalyzeResponse, plainAnalyzeResponse](t, data)
		checkReplyDecode[ProposeResponse, plainProposeResponse](t, data)
		checkReplyDecode[PartitionResponse, plainPartitionResponse](t, data)
		checkReplyDecode[SessionResponse, plainSessionResponse](t, data)
		checkReplyDecode[CommitResponse, plainCommitResponse](t, data)
	})
}

// checkReplyDecode decodes data as a T on both paths and compares each
// outcome with json.Unmarshal's into the twin P.
func checkReplyDecode[T, P any](t testing.TB, data []byte) {
	t.Helper()
	var twin P
	refErr := json.Unmarshal(data, &twin)
	want := reflect.ValueOf(twin).Convert(reflect.TypeFor[T]()).Interface()
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
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T via %s of %q:\n got %#v\nwant %#v", got, path.name, data, got, want)
		}
	}
}

// checkReplyRoundTrip encodes v, decodes the bytes back through
// DecodeJSON into got, and requires the value json.Unmarshal decodes from
// them into twin: the original, up to what the wire does not carry
// (invalid UTF-8 becomes U+FFFD, and omitempty drops an empty slice).
func checkReplyRoundTrip(t testing.TB, v json.Marshaler, got, twin any) {
	t.Helper()
	enc, err := v.MarshalJSON()
	if err != nil {
		return // a non-finite float: checkEncode requires the reference's error
	}
	if err := DecodeJSON(enc, got); err != nil {
		t.Fatalf("%T: decoding %s: %v", got, enc, err)
	}
	if err := json.Unmarshal(enc, twin); err != nil {
		t.Fatalf("%T: json.Unmarshal of %s: %v", twin, enc, err)
	}
	g := reflect.ValueOf(got).Elem()
	if w := reflect.ValueOf(twin).Elem().Convert(g.Type()).Interface(); !reflect.DeepEqual(g.Interface(), w) {
		t.Fatalf("%T of %s:\n got %#v\nwant %#v", got, enc, g.Interface(), w)
	}
}

// TestReplyRoundTrip decodes the benchmark replies, whose strings are
// valid UTF-8 and whose omitempty slices are nil or non-empty, back to
// exactly the values they were encoded from.
func TestReplyRoundTrip(t *testing.T) {
	for _, rb := range replyBodies() {
		got := reflect.New(reflect.TypeOf(rb.val))
		if err := DecodeJSON(rb.body, got.Interface()); err != nil {
			t.Fatalf("%s: %v", rb.name, err)
		}
		if !reflect.DeepEqual(got.Elem().Interface(), rb.val) {
			t.Errorf("%s:\n got %#v\nwant %#v", rb.name, got.Elem().Interface(), rb.val)
		}
	}
}

// TestReplyWalkTakesDaemonReplies requires the walk itself, not the
// encoding/json fallback, to decode every 200 reply pinned in the wire
// table and every benchmark reply. The fallback gives the same values, so
// the differential checks cannot see a walk that gives up on the
// daemons' own bytes; this test does.
func TestReplyWalkTakesDaemonReplies(t *testing.T) {
	walks := func(name string, body []byte, v any) {
		if s := (replyScanner{workload.NewScanner(body)}); !s.value(v) || !s.End() {
			t.Errorf("%s: the walk did not take %s", name, body)
		}
	}
	for _, r := range wireCompatRows(t) {
		switch {
		case r.Reply == "":
		case r.Route == "analyze":
			walks(r.Name, []byte(r.Reply), new(AnalyzeResponse))
		case r.Route == "propose":
			walks(r.Name, []byte(r.Reply), new(ProposeResponse))
		case r.Route == "partition":
			walks(r.Name, []byte(r.Reply), new(PartitionResponse))
		default:
			t.Fatalf("%s: no reply type for route %q", r.Name, r.Route)
		}
	}
	for _, rb := range replyBodies() {
		walks(rb.name, rb.body, reflect.New(reflect.TypeOf(rb.val)).Interface())
	}
}

// TestReplyDecodeAllocs holds the client's decode of the benchmark's
// analyze and partition replies at their measured allocations: the reply
// value and the strings and slices it keeps, each slice allocated once,
// at its final length, however long (the 64-entry assignment included).
// A placement's bins carry no fingerprint strings.
func TestReplyDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		max  float64
	}{{"analyze-reply", 2}, {"partition-reply-m8-24", 9}, {"partition-reply-m16-64", 13}} {
		rb := replyBody(t, c.name)
		allocs := testing.AllocsPerRun(100, func() {
			if err := rb.decode(rb.body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("decoding %s: %.0f allocs, want at most %.0f", c.name, allocs, c.max)
		}
	}
}

// replyBody returns the decode benchmark's reply body of the given name.
func replyBody(t testing.TB, name string) wireBody {
	for _, rb := range replyBodies() {
		if rb.name == name {
			return rb
		}
	}
	t.Fatalf("no reply %q", name)
	return wireBody{}
}
