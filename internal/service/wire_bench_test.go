package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/workload"
)

// wireValue is one request or reply value of the wire benchmarks with
// its reference encoder: json.Marshal(ref) writes the bytes that the
// encoding before the one-pass appenders wrote for val.
type wireValue struct {
	name string
	val  json.Marshaler
	ref  any
}

// wireBody is a request value's body with its two decoders: the
// reference (the nested passes, as json.Unmarshal drives them) and the
// daemons' one-pass decode.
type wireBody struct {
	wireValue
	body              []byte
	refDecode, decode func([]byte) error
}

// wireTask draws one sporadic task of the wire benchmarks.
func wireTask(rng *rand.Rand) model.Task {
	p := 100 + rng.Int63n(99900)
	c := 1 + rng.Int63n(p/20)
	return model.Task{WCET: c, Deadline: c + rng.Int63n(p-c+1), Period: p}
}

// wirePartitioned is a partitioned workload of the wire benchmarks: m
// processors of speeds 1 and 2 and n tasks, a quarter pinned to one
// processor and a quarter to two.
func wirePartitioned(rng *rand.Rand, m, n int) Workload {
	procs := make([]workload.Processor, m)
	for i := range procs {
		procs[i].Speed = 1 + int64(i%2)
	}
	parts := make([]workload.PartitionedTask, n)
	for i := range parts {
		parts[i].Task = wireTask(rng)
		switch i % 4 {
		case 1:
			parts[i].Affinity = []int{i % m}
		case 2:
			parts[i].Affinity = []int{1, 5}
		}
	}
	return PartitionedWorkload(procs, parts)
}

// wireCold is the wire benchmarks' partitioned workload the size of a
// partition-cold platform at its upper end: 16 processors, 64 tasks.
func wireCold() Workload {
	return wirePartitioned(rand.New(rand.NewSource(2)), 16, 64)
}

// wireBodies builds the decode benchmark's fixed bodies: a 25-task
// sporadic analyze body, two partition bodies (8 processors and 24 tasks,
// 16 processors and 64 tasks, some with affinities), a 100-task session
// open and a one-task proposal.
func wireBodies() []wireBody {
	rng := rand.New(rand.NewSource(1))
	sporadic := func(n int) Workload {
		ts := make(model.TaskSet, n)
		for i := range ts {
			ts[i] = wireTask(rng)
		}
		return SporadicWorkload(ts)
	}
	part, cold := PartitionRequest{Workload: wirePartitioned(rng, 8, 24)}, PartitionRequest{Workload: wireCold()}
	analyze := AnalyzeRequest{Workload: sporadic(25)}
	session := SessionRequest{Workload: sporadic(100)}
	propose := ProposeRequest{Task: SporadicTask(wireTask(rng))}
	out := []wireBody{
		{wireValue: wireValue{"analyze-25", analyze, refAnalyzeRequest{analyze}},
			refDecode: func(b []byte) error { var r refAnalyzeRequest; return json.Unmarshal(b, &r) },
			decode:    func(b []byte) error { var r AnalyzeRequest; return DecodeJSON(b, &r) }},
		{wireValue: wireValue{"partition-m8-24", part, refPartitionRequest{part}},
			refDecode: func(b []byte) error { var r refPartitionRequest; return json.Unmarshal(b, &r) },
			decode:    func(b []byte) error { var r PartitionRequest; return DecodeJSON(b, &r) }},
		{wireValue: wireValue{"partition-m16-64", cold, refPartitionRequest{cold}},
			refDecode: func(b []byte) error { var r refPartitionRequest; return json.Unmarshal(b, &r) },
			decode:    func(b []byte) error { var r PartitionRequest; return DecodeJSON(b, &r) }},
		{wireValue: wireValue{"session-100", session, refSessionRequest{session}},
			refDecode: func(b []byte) error { var r refSessionRequest; return json.Unmarshal(b, &r) },
			decode:    func(b []byte) error { var r SessionRequest; return DecodeJSON(b, &r) }},
		{wireValue: wireValue{"propose-1", propose, refProposeRequest{refTask{propose.Task}}},
			refDecode: func(b []byte) error {
				var r struct {
					Task refTask `json:"task"`
				}
				return json.Unmarshal(b, &r)
			},
			decode: func(b []byte) error { var r ProposeRequest; return DecodeJSON(b, &r) }},
	}
	for i := range out {
		b, err := json.Marshal(out[i].ref)
		if err != nil {
			panic(err)
		}
		out[i].body = b
	}
	return out
}

// wireReplies builds the wire benchmarks' fixed replies: an analysis
// verdict, a fast-path proposal verdict, the placements of wireBodies'
// two partition bodies, a session state and a commit.
func wireReplies() []wireValue {
	const fp = "4afcb62c58b927c9e8133fdbb4aab5583e0415fd39dfb54952e3bda3be88fd70"
	analyze := AnalyzeResponse{Model: "sporadic", Analyzer: "cascade",
		Result: ResultJSON{Verdict: "feasible", Iterations: 37}, WallNS: 6412, Fingerprint: fp}
	propose := ProposeResponse{Admitted: true, Result: ResultJSON{Verdict: "feasible", Iterations: 4},
		Utilization: 0.8734512, Committed: 41, Pending: 1, Path: "fast"}
	place := func(wl Workload) PartitionResponse {
		pl, err := partition.Place(context.Background(), wl, partition.Config{})
		if err != nil {
			panic(err)
		}
		return PartitionResponse{Model: "partitioned", Analyzer: "cascade", Placement: pl, WallNS: 81234}
	}
	part, cold := place(wirePartitioned(rand.New(rand.NewSource(1)), 8, 24)), place(wireCold())
	session := SessionResponse{ID: "7f3a9c01d2e4b658", Model: "sporadic", Analyzer: "cascade", Committed: 40,
		Utilization: 0.8612345}
	commit := CommitResponse{Moved: 1, Committed: 41, Utilization: 0.8734512}
	return []wireValue{
		{"analyze-reply", analyze, plainAnalyzeResponse(analyze)},
		{"propose-reply", propose, plainProposeResponse(propose)},
		{"partition-reply-m8-24", part, plainPartitionResponse(part)},
		{"partition-reply-m16-64", cold, plainPartitionResponse(cold)},
		{"session-reply", session, plainSessionResponse(session)},
		{"commit-reply", commit, plainCommitResponse(commit)},
	}
}

// replyBodies builds the decode benchmark's reply bodies from
// wireReplies, as the daemons send them (trailing newline included),
// with their two decoders: the typed client's before the one-pass walk
// (ref: json.NewDecoder into the method-free twin) and now (DecodeJSON).
func replyBodies() []wireBody {
	var out []wireBody
	for _, wv := range wireReplies() {
		body, err := wv.val.MarshalJSON()
		if err != nil {
			panic(err)
		}
		refType, newType := reflect.TypeOf(wv.ref), reflect.TypeOf(wv.val)
		out = append(out, wireBody{wireValue: wv, body: append(body, '\n'),
			refDecode: func(b []byte) error {
				return json.NewDecoder(bytes.NewReader(b)).Decode(reflect.New(refType).Interface())
			},
			decode: func(b []byte) error { return DecodeJSON(b, reflect.New(newType).Interface()) }})
	}
	return out
}

// BenchmarkWireDecode decodes each request body shape with the reference
// decoder (ref) and the daemons' one-pass decoder (new), and each reply
// as the typed client did (ref) and does (new), in the same run, so the
// two rows give before and after numbers on one host.
func BenchmarkWireDecode(b *testing.B) {
	for _, wb := range append(wireBodies(), replyBodies()...) {
		for _, side := range []struct {
			name   string
			decode func([]byte) error
		}{{"ref", wb.refDecode}, {"new", wb.decode}} {
			b.Run(wb.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(wb.body)))
				for range b.N {
					if err := side.decode(wb.body); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWireEncode encodes each request and reply shape as the typed
// client and the daemons did before the one-pass appenders (ref:
// json.Marshal, reflection plus the compaction of a MarshalJSON's output)
// and as they do now (new: EncodeJSON, one append pass), so the two rows
// give before and after numbers on one host.
func BenchmarkWireEncode(b *testing.B) {
	var values []wireValue
	for _, wb := range wireBodies() {
		values = append(values, wb.wireValue)
	}
	for _, wv := range append(values, wireReplies()...) {
		for _, side := range []struct {
			name   string
			encode func() ([]byte, error)
		}{
			{"ref", func() ([]byte, error) { return json.Marshal(wv.ref) }},
			{"new", func() ([]byte, error) { return EncodeJSON(wv.val) }},
		} {
			b.Run(wv.name+"/"+side.name, func(b *testing.B) {
				b.ReportAllocs()
				for range b.N {
					if _, err := side.encode(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
