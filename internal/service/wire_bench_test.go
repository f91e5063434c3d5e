package service

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// wireBody is one request body shape with its two decoders: the
// reference (today's nested passes, as json.Unmarshal drives them) and
// the daemons' one-pass decode.
type wireBody struct {
	name     string
	body     []byte
	ref, new func([]byte) error
}

// wireBodies builds the decode benchmark's fixed bodies: a 25-task
// sporadic analyze body, a partition-cold-shaped body (8 processors, 24
// tasks, some with affinities), a 100-task session open and a one-task
// proposal.
func wireBodies() []wireBody {
	rng := rand.New(rand.NewSource(1))
	task := func() model.Task {
		p := 100 + rng.Int63n(99900)
		c := 1 + rng.Int63n(p/20)
		return model.Task{WCET: c, Deadline: c + rng.Int63n(p-c+1), Period: p}
	}
	sporadic := func(n int) Workload {
		ts := make(model.TaskSet, n)
		for i := range ts {
			ts[i] = task()
		}
		return SporadicWorkload(ts)
	}
	procs := make([]workload.Processor, 8)
	for i := range procs {
		procs[i].Speed = 1 + int64(i%2)
	}
	parts := make([]workload.PartitionedTask, 24)
	for i := range parts {
		parts[i].Task = task()
		switch i % 4 {
		case 1:
			parts[i].Affinity = []int{i % 8}
		case 2:
			parts[i].Affinity = []int{1, 5}
		}
	}
	must := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	return []wireBody{
		{"analyze-25", must(AnalyzeRequest{Workload: sporadic(25)}),
			func(b []byte) error { var r refAnalyzeRequest; return json.Unmarshal(b, &r) },
			func(b []byte) error { var r AnalyzeRequest; return decodeJSON(b, &r) }},
		{"partition-m8-24", must(PartitionRequest{Workload: PartitionedWorkload(procs, parts)}),
			func(b []byte) error { var r refPartitionRequest; return json.Unmarshal(b, &r) },
			func(b []byte) error { var r PartitionRequest; return decodeJSON(b, &r) }},
		{"session-100", must(SessionRequest{Workload: sporadic(100)}),
			func(b []byte) error { var r refSessionRequest; return json.Unmarshal(b, &r) },
			func(b []byte) error { var r SessionRequest; return decodeJSON(b, &r) }},
		{"propose-1", must(ProposeRequest{Task: SporadicTask(task())}),
			func(b []byte) error {
				var r struct {
					Task refTask `json:"task"`
				}
				return json.Unmarshal(b, &r)
			},
			func(b []byte) error { var r ProposeRequest; return decodeJSON(b, &r) }},
	}
}

// BenchmarkWireDecode decodes each body shape with the reference decoder
// (ref) and the daemons' one-pass decoder (new) in the same run, so the
// two rows give before and after numbers on one host.
func BenchmarkWireDecode(b *testing.B) {
	for _, wb := range wireBodies() {
		for _, side := range []struct {
			name   string
			decode func([]byte) error
		}{{"ref", wb.ref}, {"new", wb.new}} {
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
