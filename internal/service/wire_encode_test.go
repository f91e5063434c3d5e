package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/workload"
)

// checkEncode requires v's one-pass MarshalJSON to write exactly the bytes
// json.Marshal(ref) writes, and json.Marshal(v), which compacts that
// output, to write them too. When the reference fails (a NaN or infinite
// float), v must fail with encoding/json's *json.UnsupportedValueError.
func checkEncode(t testing.TB, v json.Marshaler, ref any) {
	t.Helper()
	want, refErr := json.Marshal(ref)
	got, err := v.MarshalJSON()
	if refErr != nil {
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) {
			t.Fatalf("%T: MarshalJSON gave %q, %v; reference error %v", v, got, err, refErr)
		}
		return
	}
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%T: MarshalJSON\n got %s (%v)\nwant %s", v, got, err, want)
	}
	if viaJSON, err := json.Marshal(v); err != nil || !bytes.Equal(viaJSON, want) {
		t.Fatalf("%T: json.Marshal\n got %s (%v)\nwant %s", v, viaJSON, err, want)
	}
}

// checkDecoded decodes data through the daemons' walker as each request
// type, and requires every value it accepts to encode as the reference
// encoders encode it.
func checkDecoded(t testing.TB, data []byte) {
	t.Helper()
	var ar AnalyzeRequest
	if DecodeJSON(data, &ar) == nil {
		checkEncode(t, ar, refAnalyzeRequest{ar})
	}
	var pr PartitionRequest
	if DecodeJSON(data, &pr) == nil {
		checkEncode(t, pr, refPartitionRequest{pr})
	}
	var sr SessionRequest
	if DecodeJSON(data, &sr) == nil {
		checkEncode(t, sr, refSessionRequest{sr})
	}
	var ws WorkloadSet
	if DecodeJSON(data, &ws) == nil {
		checkEncode(t, ws, refWorkloadSet{ws})
		checkEncode(t, ws.Workload, refWorkload{ws.Workload})
	}
	var task WorkloadTask
	if DecodeJSON(data, &task) == nil {
		checkEncode(t, task, refTask{task})
		checkEncode(t, ProposeRequest{Task: task}, refProposeRequest{refTask{task}})
	}
}

// checkBuilt builds one value of every hand-encoded type from s and
// checks each against its reference encoder, and each reply's decode
// against its encode.
func checkBuilt(t testing.TB, s *encSource) {
	t.Helper()
	w := s.workload()
	checkEncode(t, w, refWorkload{w})
	ar := AnalyzeRequest{Name: s.str(), Workload: w, Analyzer: s.str(), Options: s.options()}
	checkEncode(t, ar, refAnalyzeRequest{ar})
	ws := WorkloadSet{Name: s.str(), Workload: w}
	checkEncode(t, ws, refWorkloadSet{ws})
	sr := SessionRequest{Analyzer: s.str(), Options: s.options(), Workload: w}
	checkEncode(t, sr, refSessionRequest{sr})
	pr := PartitionRequest{Name: s.str(), Workload: w, Analyzer: s.str(), Options: s.options(),
		Heuristics: s.strs(), Workers: int(s.int64())}
	checkEncode(t, pr, refPartitionRequest{pr})
	task := s.task()
	checkEncode(t, task, refTask{task})
	checkEncode(t, ProposeRequest{Task: task}, refProposeRequest{refTask{task}})

	an := AnalyzeResponse{Name: s.str(), Model: s.str(), Analyzer: s.str(), Result: s.result(),
		WallNS: s.int64(), Cached: s.bool(), Fingerprint: s.str()}
	checkEncode(t, an, plainAnalyzeResponse(an))
	pp := ProposeResponse{Admitted: s.bool(), Result: s.result(), Utilization: s.float(),
		Committed: int(s.int64()), Pending: int(s.int64()), Escalated: s.bool(), Path: s.str()}
	checkEncode(t, pp, plainProposeResponse(pp))
	pa := PartitionResponse{Name: s.str(), Model: s.str(), Analyzer: s.str(), Placement: s.placement(),
		WallNS: s.int64()}
	checkEncode(t, pa, plainPartitionResponse(pa))
	se := SessionResponse{ID: s.str(), Model: s.str(), Analyzer: s.str(), Committed: int(s.int64()),
		Pending: int(s.int64()), Utilization: s.float()}
	checkEncode(t, se, plainSessionResponse(se))
	co := CommitResponse{Moved: int(s.int64()), Committed: int(s.int64()), Utilization: s.float()}
	checkEncode(t, co, plainCommitResponse(co))

	checkReplyRoundTrip(t, an, new(AnalyzeResponse), new(plainAnalyzeResponse))
	checkReplyRoundTrip(t, pp, new(ProposeResponse), new(plainProposeResponse))
	checkReplyRoundTrip(t, pa, new(PartitionResponse), new(plainPartitionResponse))
	checkReplyRoundTrip(t, se, new(SessionResponse), new(plainSessionResponse))
	checkReplyRoundTrip(t, co, new(CommitResponse), new(plainCommitResponse))
}

// TestWireEncodeMatchesReference checks every hand-encoded request and
// reply type against the encoders it replaced: values built from random
// bytes, and the requests the walker decodes from the wire table and the
// README bodies.
func TestWireEncodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 3000 {
		b := make([]byte, rng.Intn(768))
		rng.Read(b)
		checkBuilt(t, &encSource{b})
	}
	for _, body := range append(wireCompatBodies(t), readmeBodies...) {
		checkDecoded(t, []byte(body))
	}
}

// FuzzWireEncode requires the request values the walker decodes from the
// input, and reply values built from the input bytes, to encode
// byte-identically to the reference encoders.
func FuzzWireEncode(f *testing.F) {
	for _, body := range append(wireCompatBodies(f), readmeBodies...) {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecoded(t, data)
		checkBuilt(t, &encSource{data})
	})
}

// TestWireEncodeAllocs holds the one-pass encode of a 25-task sporadic
// analyze body to one allocation, the body itself. json.Marshal of the
// reflective encoder it replaced made four.
func TestWireEncodeAllocs(t *testing.T) {
	req := wireBodies()[0].val
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeJSON(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("encoding a 25-task analyze body: %.0f allocs, want 1", allocs)
	}
}

// TestWriteJSON pins the reply writer: json.NewEncoder's bytes with the
// trailing newline, Content-Length set, and a 500 with the typed error
// body for a value encoding/json cannot encode.
func TestWriteJSON(t *testing.T) {
	notFound := ErrorFor(http.StatusNotFound, errors.New(`no session "<x>"`)).Response()
	cases := []struct{ v, ref any }{{notFound, notFound}}
	for _, wv := range wireReplies() {
		cases = append(cases, struct{ v, ref any }{wv.val, wv.ref})
	}
	for _, c := range cases {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.ref); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		WriteJSON(rec, http.StatusOK, c.v)
		if rec.Code != http.StatusOK || rec.Body.String() != want.String() ||
			rec.Header().Get("Content-Length") != strconv.Itoa(want.Len()) ||
			rec.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%T: %d %v %q, want 200 %q", c.v, rec.Code, rec.Header(), rec.Body, want.String())
		}
	}
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, ProposeResponse{Utilization: math.NaN()})
	var er ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); rec.Code != http.StatusInternalServerError ||
		err != nil || er.Code != CodeInternal {
		t.Errorf("NaN reply: %d %q, want 500 with code %q", rec.Code, rec.Body, CodeInternal)
	}
}

// encSource builds request and reply values from bytes for the encode
// tests. Each draw reads a selector byte, so random or fuzzed input
// reaches names with <>&"\, control bytes, invalid UTF-8 and U+2028;
// floats around encoding/json's format switches at 1e-6 and 1e21, and
// non-finite ones; zero, negative and extreme ints; nil and empty
// slices; and set and zero options, heuristics and workers. An exhausted
// source reads zeros.
type encSource struct{ b []byte }

func (s *encSource) byte() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

func (s *encSource) bool() bool { return s.byte()&1 == 1 }

// count draws a small length.
func (s *encSource) count() int { return int(s.byte() % 6) }

var encNames = [...]string{"", "t1", "plain name-1_x.y~\x7f", `<b>&"q"\`, "\x00\x01\b\f\n\r\t\x1f",
	"\xff\xfe\xc3", "a\u2028b\u2029", "\u00e9 \u00fc \u017f", "\ufffd", "</script>", "cascade"}

func (s *encSource) str() string {
	sel := s.byte()
	if sel < 128 {
		return encNames[int(sel)%len(encNames)]
	}
	n := min(int(sel%12), len(s.b))
	out := string(s.b[:n])
	s.b = s.b[n:]
	return out
}

func (s *encSource) strs() []string {
	switch s.byte() % 3 {
	case 0:
		return nil
	case 1:
		return []string{}
	}
	out := make([]string, 1+s.count())
	for i := range out {
		out[i] = s.str()
	}
	return out
}

func (s *encSource) int64() int64 {
	sel := s.byte()
	switch sel % 8 {
	case 0:
		return 0
	case 1:
		return math.MaxInt64
	case 2:
		return math.MinInt64
	case 3:
		return -int64(s.byte())
	}
	var v int64
	for range 1 + (sel>>3)%8 {
		v = v<<8 | int64(s.byte())
	}
	if sel&0x80 != 0 {
		v = -v
	}
	return v
}

func (s *encSource) ints() []int {
	switch s.byte() % 3 {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	out := make([]int, 1+s.count())
	for i := range out {
		out[i] = int(s.int64())
	}
	return out
}

// encFloats are floats at and around encoding/json's 'f'/'e' switches and
// its e-07 → e-7 cleanup.
var encFloats = [...]float64{0, 1e-6, 1e-7, 1.5e-7, 1e-10, 1e21, 1e20, 0.1, 1, 2.5, 1e-300,
	5e-324, math.MaxFloat64, 123456789.125, 0.8734512}

func (s *encSource) float() float64 {
	sel := s.byte()
	var f float64
	switch {
	case sel < 128:
		f = encFloats[int(sel)%len(encFloats)]
		switch s.byte() % 3 {
		case 1:
			f = math.Nextafter(f, 0)
		case 2:
			f = math.Nextafter(f, math.Inf(1))
		}
	case sel < 252:
		f = math.Float64frombits(uint64(s.int64()))
	case sel == 252:
		f = math.NaN()
	default:
		f = math.Inf(1)
	}
	if s.bool() {
		f = -f
	}
	return f
}

func (s *encSource) task() workload.Task {
	switch s.byte() % 3 {
	case 0:
		return workload.Task{}
	case 1:
		return EventTask(s.eventTask())
	}
	return SporadicTask(s.sporadicTask())
}

func (s *encSource) sporadicTask() model.Task {
	return model.Task{Name: s.str(), WCET: s.int64(), Deadline: s.int64(), Period: s.int64(),
		Phase: s.int64(), CriticalSection: s.int64(), SelfSuspension: s.int64()}
}

func (s *encSource) eventTask() eventstream.Task {
	t := eventstream.Task{Name: s.str(), WCET: s.int64(), Deadline: s.int64()}
	if s.bool() {
		t.Stream = make(eventstream.Stream, s.count())
		for i := range t.Stream {
			t.Stream[i] = eventstream.Element{Cycle: s.int64(), Offset: s.int64()}
		}
	}
	return t
}

func (s *encSource) workload() Workload {
	models := [...]workload.Model{"", workload.Sporadic, workload.Events, workload.Partitioned}
	w := Workload{Model: models[s.byte()%4]}
	n := s.count()
	nilTasks := s.byte()%4 == 0
	switch w.Kind() {
	case workload.Events:
		if !nilTasks {
			w.Events = make([]eventstream.Task, n)
			for i := range w.Events {
				w.Events[i] = s.eventTask()
			}
		}
	case workload.Partitioned:
		if !nilTasks {
			w.PartTasks = make([]workload.PartitionedTask, n)
			for i := range w.PartTasks {
				w.PartTasks[i] = workload.PartitionedTask{Task: s.sporadicTask(), Affinity: s.ints()}
			}
		}
		if s.byte()%4 != 0 {
			w.Processors = make([]workload.Processor, s.count())
			for i := range w.Processors {
				w.Processors[i] = workload.Processor{Name: s.str(), Speed: s.int64()}
			}
		}
	default:
		if !nilTasks {
			w.Tasks = make(model.TaskSet, n)
			for i := range w.Tasks {
				w.Tasks[i] = s.sporadicTask()
			}
		}
	}
	return w
}

func (s *encSource) options() OptionsJSON {
	if s.bool() {
		return OptionsJSON{}
	}
	return OptionsJSON{Arithmetic: s.str(), RevisionOrder: s.str(), MaxIterations: s.int64(), MaxLevel: s.int64()}
}

func (s *encSource) result() ResultJSON {
	return ResultJSON{Verdict: s.str(), Iterations: s.int64(), Revisions: s.int64(), MaxLevel: s.int64(),
		FailureInterval: s.int64(), Bound: s.int64(), BoundKind: s.str()}
}

func (s *encSource) attempt() partition.Attempt {
	a := partition.Attempt{Heuristic: partition.Heuristic(s.str()), Placed: int(s.int64()),
		FailedTask: int(s.int64()), FailedTaskName: s.str()}
	if s.byte()%3 != 0 {
		a.Rejections = make([]partition.Rejection, s.count())
		for i := range a.Rejections {
			a.Rejections[i] = partition.Rejection{Processor: int(s.int64()), Reason: s.str()}
		}
	}
	return a
}

func (s *encSource) placement() partition.Placement {
	pl := partition.Placement{Feasible: s.bool(), Heuristic: partition.Heuristic(s.str()), Assignment: s.ints(),
		Stats: partition.Stats{BinChecks: uint64(s.int64()), CacheHits: uint64(s.int64()),
			GateRejections: uint64(s.int64()), Promotions: uint64(s.int64())}}
	if s.bool() {
		pl.Processors = make([]partition.ProcessorReport, s.count())
		for i := range pl.Processors {
			pl.Processors[i] = partition.ProcessorReport{Index: int(s.int64()), Name: s.str(), Speed: s.int64(),
				Tasks: s.ints(), Utilization: s.float(), UtilizationExact: s.str(), Verdict: s.str(),
				Iterations: s.int64(), WallNS: s.int64()}
		}
	}
	if s.bool() {
		pl.Attempts = make([]partition.Attempt, s.count())
		for i := range pl.Attempts {
			pl.Attempts[i] = s.attempt()
		}
	}
	if s.bool() {
		ce := s.attempt()
		pl.Counterexample = &ce
	}
	return pl
}
