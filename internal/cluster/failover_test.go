package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	edf "repro"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
)

// TestAnalyzeFailover kills one replica mid-stream and checks idempotent
// analyze requests silently fail over to the surviving ring node.
func TestAnalyzeFailover(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	sets := genSets(t, 12, 31)

	// Warm phase: learn which replica owns which set.
	owner := make([]string, len(sets))
	for i, ts := range sets {
		_, rt, err := tc.c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.SporadicWorkload(ts)})
		if err != nil {
			t.Fatalf("warm analyze %d: %v", i, err)
		}
		owner[i] = rt.Replica
	}
	victim := owner[0]
	tc.replicaByURL(t, victim).Kill()

	// Every set — including those owned by the victim — must still get a
	// verdict, now entirely from the survivor.
	for i, ts := range sets {
		resp, rt, err := tc.c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.SporadicWorkload(ts)})
		if err != nil {
			t.Fatalf("post-kill analyze %d (owner %s): %v", i, owner[i], err)
		}
		if rt.Replica == victim {
			t.Fatalf("set %d routed to the dead replica", i)
		}
		if resp.Result.Verdict == "" {
			t.Fatalf("set %d: empty verdict after failover", i)
		}
	}
	text := mustMetrics(t, tc.c)
	for _, want := range []string{
		"edfproxy_replicas_healthy 1",
		"edfproxy_replica_ejections_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q after kill:\n%s", want, text)
		}
	}
	// At least the first request aimed at the victim had to fail over.
	if strings.Contains(text, "edfproxy_failovers_total 0") {
		t.Error("no failovers recorded despite a dead owner")
	}
}

// TestBatchFailover checks a split batch completes in full, in order,
// when one replica dies between the warm run and the re-run.
func TestBatchFailover(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	req := service.BatchRequest{Analyzers: []string{"cascade"}}
	for i, ts := range genSets(t, 16, 43) {
		req.Sets = append(req.Sets, service.WorkloadSet{
			Name: fmt.Sprintf("set-%d", i), Workload: edf.SporadicWorkload(ts),
		})
	}
	warm, _, err := tc.c.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	tc.sp.Replicas[0].Kill()
	resp, rt, err := tc.c.Batch(ctx, req)
	if err != nil {
		t.Fatalf("batch after kill: %v", err)
	}
	if len(resp.Results) != len(warm.Results) {
		t.Fatalf("post-kill batch: %d results, want %d", len(resp.Results), len(warm.Results))
	}
	for i, jr := range resp.Results {
		if jr.SetIndex != i || jr.Err != "" {
			t.Fatalf("post-kill job %d: index %d err %q", i, jr.SetIndex, jr.Err)
		}
		if jr.Result.Verdict != warm.Results[i].Result.Verdict {
			t.Fatalf("job %d verdict changed across failover: %q vs %q",
				i, jr.Result.Verdict, warm.Results[i].Result.Verdict)
		}
	}
	if rep := tc.sp.Replicas[0].URL; strings.Contains(rt.Replica, rep) {
		t.Fatalf("post-kill batch reportedly served by dead replica: %s", rt.Replica)
	}
}

// TestSessionOwnerDown503 pins the sticky-session failure contract: when
// a session's owner dies, requests for it surface a clear 503 naming the
// owner rather than silently rebuilding an empty session elsewhere.
func TestSessionOwnerDown503(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	h, _, err := tc.c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 2, Deadline: 8, Period: 10}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find the owner via each replica's session gauge, then kill it.
	var ownerURL string
	for _, rep := range tc.sp.Replicas {
		text, err := client.New(rep.URL, nil).Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(text, "edfd_sessions_active 1") {
			ownerURL = rep.URL
		}
	}
	if ownerURL == "" {
		t.Fatal("no replica reports the session")
	}
	tc.replicaByURL(t, ownerURL).Kill()

	_, err = h.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{WCET: 1, Deadline: 50, Period: 100}),
	})
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("propose against dead owner: err %v, want client.Error", err)
	}
	if ce.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", ce.StatusCode)
	}
	if !strings.Contains(ce.Message, ownerURL) {
		t.Fatalf("503 message does not name the owner %s: %q", ownerURL, ce.Message)
	}
	if !strings.Contains(ce.Message, h.ID) {
		t.Fatalf("503 message does not name the session %s: %q", h.ID, ce.Message)
	}
	// Analyze traffic keeps flowing throughout.
	if _, _, err := tc.c.Analyze(ctx, service.AnalyzeRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 1, Deadline: 9, Period: 10}}),
	}); err != nil {
		t.Fatalf("analyze while a replica is down: %v", err)
	}
	// And new sessions open on the survivor.
	h2, _, err := tc.c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatalf("open session after owner death: %v", err)
	}
	if _, _, err := h2.State(ctx); err != nil {
		t.Fatalf("new session unusable: %v", err)
	}
}

// TestHealthEjectAndReadmit drives the full health lifecycle without the
// background ticker: a replica that stops answering /healthz is ejected
// on the next sweep, and re-admitted — with ring rebalancing — when it
// answers again.
func TestHealthEjectAndReadmit(t *testing.T) {
	sp, err := cluster.Spawn(1, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()

	// A second "replica" whose lifecycle the test controls directly.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flakyURL := "http://" + ln.Addr().String()
	flaky := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, `{"status":"ok"}`)
	})}
	serving := make(chan struct{})
	go func() { close(serving); _ = flaky.Serve(ln) }()
	<-serving

	p, err := cluster.New(cluster.Config{Replicas: []string{sp.URLs()[0], flakyURL}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p.CheckReplicas(ctx)
	if got := healthyCount(t, p); got != 2 {
		t.Fatalf("healthy = %d, want 2", got)
	}

	// Take the flaky replica down; the sweep must eject it.
	_ = flaky.Close()
	p.CheckReplicas(ctx)
	if got := healthyCount(t, p); got != 1 {
		t.Fatalf("healthy after close = %d, want 1", got)
	}

	// Bring it back on the same address; the sweep must re-admit it.
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Skipf("could not rebind %s: %v", ln.Addr(), err)
	}
	flaky2 := &http.Server{Handler: flaky.Handler}
	go func() { _ = flaky2.Serve(ln2) }()
	defer flaky2.Close()
	p.CheckReplicas(ctx)
	if got := healthyCount(t, p); got != 2 {
		t.Fatalf("healthy after recovery = %d, want 2", got)
	}
}

// healthyCount reads the proxy's own healthz gauge, and checks that it
// agrees with the per-replica map of the same reply.
func healthyCount(t testing.TB, p *cluster.Proxy) int {
	t.Helper()
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var body struct {
		Healthy  int               `json:"healthy"`
		Replicas map[string]string `json:"replicas"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("healthz body: %v", err)
	}
	inMap := 0
	for _, state := range body.Replicas {
		if state == "healthy" {
			inMap++
		}
	}
	if body.Healthy != inMap {
		t.Fatalf("healthz says %d healthy but its map lists %d: %v", body.Healthy, inMap, body.Replicas)
	}
	return body.Healthy
}
