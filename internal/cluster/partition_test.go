package cluster_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/workload"
)

func partReq(name string, tasks ...workload.PartitionedTask) service.PartitionRequest {
	return service.PartitionRequest{
		Name: name,
		Workload: service.PartitionedWorkload(
			[]workload.Processor{{Name: "p0"}, {Name: "p1", Speed: 2}}, tasks),
	}
}

func pTask(name string, c, d, t int64) workload.PartitionedTask {
	return workload.PartitionedTask{Task: model.Task{Name: name, WCET: c, Deadline: d, Period: t}}
}

// TestProxyPartitionRouting routes a placement through the proxy:
// fingerprint-sticky like analyze, the repeat equal to the first apart
// from its wall times, and the proxy's own partition counter visible on
// /metrics.
func TestProxyPartitionRouting(t *testing.T) {
	tc := startCluster(t, 3, service.Config{})
	ctx := context.Background()
	req := partReq("cluster", pTask("a", 6, 10, 10), pTask("b", 6, 10, 10), pTask("c", 2, 10, 10))

	first, rt1, err := tc.c.Partition(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Feasible || len(first.Processors) != 2 {
		t.Fatalf("placement: %+v", first)
	}
	if rt1.Replica == "" || rt1.Attempts != 1 {
		t.Fatalf("route: %+v", rt1)
	}
	second, rt2, err := tc.c.Partition(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if rt2.Replica != rt1.Replica {
		t.Errorf("repeat placement routed to %s, first went to %s", rt2.Replica, rt1.Replica)
	}
	if a, b := withoutWallTimes(second), withoutWallTimes(first); !reflect.DeepEqual(a, b) {
		t.Errorf("repeat placement\n%+v\ndiffers from the first\n%+v", a, b)
	}

	page, err := tc.c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"edfproxy_partition_routed_total 2",
		"edfd_partition_requests_total 2",
		"edfd_partition_bin_cache_hits_total",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("fleet metrics lack %q", want)
		}
	}
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

// TestProxyPartitionFailover kills the sticky replica and expects the
// same batch-style failover semantics: the request succeeds on the next
// ring node with Attempts > 1.
func TestProxyPartitionFailover(t *testing.T) {
	tc := startCluster(t, 3, service.Config{})
	ctx := context.Background()
	req := partReq("failover", pTask("a", 6, 10, 10), pTask("b", 6, 10, 10))

	_, rt, err := tc.c.Partition(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	tc.replicaByURL(t, rt.Replica).Kill()
	resp, rt2, err := tc.c.Partition(ctx, req)
	if err != nil {
		t.Fatalf("partition after replica death: %v", err)
	}
	if !resp.Feasible {
		t.Fatalf("placement infeasible after failover: %+v", resp)
	}
	if rt2.Replica == rt.Replica || rt2.Attempts < 2 {
		t.Errorf("no failover: first %+v, second %+v", rt, rt2)
	}
}

// TestProxySchemaGate exercises GET /v1/schema through the proxy and
// the proxy's answer to workload models: supported models pass through,
// and an unknown model gets the typed 400 from the proxy's request
// decode, the same decoder every edfd runs, before any replica sees the
// request.
func TestProxySchemaGate(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()

	sr, err := tc.c.Schema(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sr.WireVersion != service.WireVersion {
		t.Errorf("wire version %q through the proxy", sr.WireVersion)
	}

	// A supported model is routed and placed.
	if _, _, err := tc.c.Partition(ctx, partReq("ok", pTask("a", 1, 10, 10))); err != nil {
		t.Fatal(err)
	}

	// An unknown model is rejected by the proxy with the typed error.
	raw := `{"model":"partitioned","processors":[{}],"tasks":[{"wcet":1,"deadline":2,"period":2}]}`
	bogus := strings.Replace(raw, "partitioned", "hyperperiodic", 1)
	resp, err := tc.hs.Client().Post(tc.hs.URL+"/v1/partition", "application/json", strings.NewReader(bogus))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// The workload parser rejects the model while the body decodes, so
	// the client sees bad_request, never a 5xx.
	if resp.StatusCode != 400 {
		t.Errorf("unknown model: status %d", resp.StatusCode)
	}

	// The typed client surface agrees.
	_, _, err = tc.c.Partition(ctx, service.PartitionRequest{
		Workload: service.SporadicWorkload(model.TaskSet{{WCET: 1, Deadline: 2, Period: 2}}),
	})
	var se *service.Error
	if !errors.As(err, &se) || se.Retryable {
		t.Errorf("sporadic on /v1/partition through proxy: %v", err)
	}
}
