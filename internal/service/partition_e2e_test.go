// End-to-end coverage of POST /v1/partition, GET /v1/schema and the
// typed error shape, driven only through the typed client.
package service_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/workload"
)

func partWorkload(tasks ...workload.PartitionedTask) service.Workload {
	return service.PartitionedWorkload([]workload.Processor{{Name: "p0"}, {Name: "p1", Speed: 2}}, tasks)
}

func partTask(name string, c, d, t int64, affinity ...int) workload.PartitionedTask {
	return workload.PartitionedTask{
		Task:     model.Task{Name: name, WCET: c, Deadline: d, Period: t},
		Affinity: affinity,
	}
}

func TestE2EPartitionFeasible(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	resp, rt, err := c.Partition(ctx, service.PartitionRequest{
		Name: "plant",
		Workload: partWorkload(
			partTask("a", 6, 10, 10),
			partTask("b", 6, 10, 10),
			partTask("pinned", 2, 10, 10, 0),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Against a bare edfd the Route carries no replica metadata — only
	// the trace id the server echoes. This pins the collapsed-API
	// contract: one method, Route zero-ish without a proxy in the path.
	if rt.Replica != "" || rt.Attempts != 0 || rt.Owner != "" || rt.TakenOverFrom != "" {
		t.Errorf("bare-edfd Route carries proxy metadata: %+v", rt)
	}
	if rt.TraceID == "" {
		t.Error("no trace id echoed")
	}
	if !resp.Feasible || resp.Model != "partitioned" || resp.Analyzer != "cascade" {
		t.Fatalf("placement: %+v", resp)
	}
	if resp.Assignment[2] != 0 {
		t.Errorf("affinity-pinned task on processor %d", resp.Assignment[2])
	}
	if len(resp.Processors) != 2 {
		t.Fatalf("processors: %+v", resp.Processors)
	}
	for _, rep := range resp.Processors {
		if rep.Verdict != "feasible" {
			t.Errorf("processor %d: verdict %s", rep.Index, rep.Verdict)
		}
	}
	if resp.Stats.BinChecks == 0 {
		t.Error("no bin checks counted")
	}

	// The placement trace must resolve, with the placement span and one
	// bin span per processor; processor 0 holds tasks a and pinned.
	tr, err := c.Trace(ctx, rt.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	bins, place, p0 := 0, false, false
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "bin:p") {
			bins++
		}
		if sp.Name == "place" {
			place = true
		}
		p0 = p0 || sp.Name == "bin:p0" && sp.Detail == "2 tasks, feasible"
	}
	if !place || bins != len(resp.Processors) {
		t.Errorf("trace spans: place=%v bins=%d want %d", place, bins, len(resp.Processors))
	}
	if !p0 {
		t.Errorf("no span bin:p0 with detail %q: %+v", "2 tasks, feasible", tr.Spans)
	}

	// A repeated placement equals the first apart from its wall times.
	again, _, err := c.Partition(ctx, service.PartitionRequest{Name: "plant", Workload: partWorkload(
		partTask("a", 6, 10, 10),
		partTask("b", 6, 10, 10),
		partTask("pinned", 2, 10, 10, 0),
	)})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := withoutWallTimes(again), withoutWallTimes(resp); !reflect.DeepEqual(a, b) {
		t.Errorf("repeated placement\n%+v\ndiffers from the first\n%+v", a, b)
	}

	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"edfd_partition_requests_total 2",
		"edfd_partition_feasible_total 2",
		"edfd_partition_bin_checks_total",
		"edfd_partition_bin_cache_hits_total",
	} {
		if !strings.Contains(page, name) {
			t.Errorf("metrics page lacks %q", name)
		}
	}
	_ = srv
}

// withoutWallTimes returns r with its wall times, the only fields that
// differ between runs of one placement, zeroed in a copy of its reports.
func withoutWallTimes(r service.PartitionResponse) service.PartitionResponse {
	r.WallNS = 0
	r.Processors = slices.Clone(r.Processors)
	for j := range r.Processors {
		r.Processors[j].WallNS = 0
	}
	return r
}

// TestE2EPartitionLeavesCache: a placement neither reads nor fills the
// result cache, so it leaves the cache's entries, hits and misses as an
// analyze left them.
func TestE2EPartitionLeavesCache(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	cacheMetrics := func() map[string]float64 {
		t.Helper()
		page, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		samples, err := obs.ParseExposition(strings.NewReader(page))
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, s := range samples {
			switch s.Name {
			case "edfd_cache_entries", "edfd_cache_hits", "edfd_cache_misses":
				out[s.Name] = s.Value
			}
		}
		if len(out) != 3 {
			t.Fatalf("metrics page lacks a cache family: %v", out)
		}
		return out
	}
	// One analyze of the single-task bin the placement below builds on
	// processor 0, so the cache holds an entry it could hit.
	if _, _, err := c.Analyze(ctx, service.AnalyzeRequest{
		Workload: service.SporadicWorkload(model.TaskSet{{WCET: 6, Deadline: 10, Period: 10}}),
	}); err != nil {
		t.Fatal(err)
	}
	before := cacheMetrics()
	for range 2 {
		resp, _, err := c.Partition(ctx, service.PartitionRequest{Workload: partWorkload(
			partTask("a", 6, 10, 10),
			partTask("b", 6, 10, 10),
			partTask("pinned", 2, 10, 10, 0),
		)})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Feasible {
			t.Fatalf("placement: %+v", resp)
		}
	}
	if after := cacheMetrics(); !reflect.DeepEqual(after, before) {
		t.Errorf("placements moved the result cache from %v to %v", before, after)
	}
}

func TestE2EPartitionCounterexample(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	// Three heavy tasks over (1 + 2) capacity that cannot coexist:
	// per-task demand 0.7 of a unit processor, the speed-2 one can hold
	// two but not three.
	resp, _, err := c.Partition(context.Background(), service.PartitionRequest{
		Workload: partWorkload(
			partTask("a", 7, 10, 10),
			partTask("b", 7, 10, 10),
			partTask("c", 7, 10, 10),
			partTask("d", 7, 10, 10),
		),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Feasible {
		t.Fatalf("overloaded workload placed: %+v", resp)
	}
	if resp.Counterexample == nil || len(resp.Attempts) == 0 {
		t.Fatalf("no counterexample trail: %+v", resp)
	}
	ce := resp.Counterexample
	if ce.FailedTaskName == "" || len(ce.Rejections) != 2 {
		t.Errorf("counterexample: %+v", ce)
	}
}

// TestE2EPartitionHugeSpeed: on a processor of speed MaxInt64 each
// WCET-2 task scales to ceil(2/s) = 1 per period 2, so three of them
// need 3/2 of it and the third fails the utilization gate. The naive
// scaling (C+s-1)/s wraps there to a negative WCET and makes the
// platform look feasible.
func TestE2EPartitionHugeSpeed(t *testing.T) {
	hs := httptest.NewServer(service.New(service.Config{}).Handler())
	defer hs.Close()
	const body = `{"model":"partitioned",
		"processors":[{"speed":9223372036854775807}],
		"tasks":[{"wcet":2,"deadline":2,"period":2},
		         {"wcet":2,"deadline":2,"period":2},
		         {"wcet":2,"deadline":2,"period":2}]}`
	var out service.PartitionResponse
	if resp := postRaw(t, hs, "/v1/partition", body, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if out.Feasible {
		t.Fatalf("three half-utilization tasks placed on one processor: %+v", out.Processors)
	}
	ce := out.Counterexample
	if ce == nil || ce.FailedTask != 2 || ce.Placed != 2 ||
		len(ce.Rejections) != 1 || ce.Rejections[0].Reason != "gate" {
		t.Errorf("counterexample %+v, want task 2 refused by the gate after 2 placed", ce)
	}
}

func TestE2EPartitionRejections(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	pw := partWorkload(partTask("a", 1, 10, 10))

	// A partitioned workload is not accepted by the uniprocessor
	// endpoints, and the typed error says so.
	_, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: pw})
	var se *service.Error
	if !errors.As(err, &se) || se.Code != service.CodeUnprocessable {
		t.Errorf("analyze(partitioned): %v", err)
	}
	_, _, err = c.Batch(ctx, service.BatchRequest{Sets: []service.WorkloadSet{{Workload: pw}}})
	if !errors.As(err, &se) || se.Code != service.CodeUnprocessable {
		t.Errorf("batch(partitioned): %v", err)
	}
	if _, _, err = c.OpenSession(ctx, service.SessionRequest{Workload: pw}); !errors.As(err, &se) ||
		se.Code != service.CodeUnprocessable {
		t.Errorf("session(partitioned): %v", err)
	}

	// And the partition endpoint rejects everything else.
	_, _, err = c.Partition(ctx, service.PartitionRequest{
		Workload: service.SporadicWorkload(model.TaskSet{{WCET: 1, Deadline: 2, Period: 2}}),
	})
	if !errors.As(err, &se) || se.Code != service.CodeUnprocessable {
		t.Errorf("partition(sporadic): %v", err)
	}
	_, _, err = c.Partition(ctx, service.PartitionRequest{Workload: pw, Analyzer: "bogus"})
	if !errors.As(err, &se) || se.Code != service.CodeBadRequest {
		t.Errorf("partition(bogus analyzer): %v", err)
	}
	_, _, err = c.Partition(ctx, service.PartitionRequest{Workload: pw, Heuristics: []string{"bogus"}})
	if !errors.As(err, &se) || se.Code != service.CodeBadRequest {
		t.Errorf("partition(bogus heuristic): %v", err)
	}
}

func TestE2ESchema(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	sr, err := c.Schema(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if sr.WireVersion != service.WireVersion {
		t.Errorf("wire version %q, want %q", sr.WireVersion, service.WireVersion)
	}
	models := strings.Join(sr.Models, ",")
	for _, m := range []string{"sporadic", "events", "partitioned"} {
		if !strings.Contains(models, m) {
			t.Errorf("schema models %q lack %q", models, m)
		}
	}
	if len(sr.Analyzers) == 0 || len(sr.Heuristics) != 3 {
		t.Errorf("schema: %d analyzers, %d heuristics", len(sr.Analyzers), len(sr.Heuristics))
	}
}

// TestE2ETypedErrorSurfaces pins the client error contract: both the
// HTTP-level *client.Error and the wire-level *service.Error are
// reachable with errors.As, and retryability follows the status.
func TestE2ETypedErrorSurfaces(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	_, _, err := c.Analyze(context.Background(), service.AnalyzeRequest{
		Workload: service.SporadicWorkload(model.TaskSet{{WCET: 1, Deadline: 2, Period: 2}}),
		Analyzer: "nope",
	})
	var ce *client.Error
	if !errors.As(err, &ce) || ce.StatusCode != http.StatusBadRequest || ce.Code != service.CodeBadRequest {
		t.Fatalf("client error: %+v", ce)
	}
	if ce.Retryable {
		t.Error("a 400 is not retryable")
	}
	var se *service.Error
	if !errors.As(err, &se) || se.Code != service.CodeBadRequest || se.Message == "" {
		t.Fatalf("service error not surfaced: %v", err)
	}
}
