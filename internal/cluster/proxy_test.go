package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	edf "repro"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
)

// testCluster is n in-process replicas behind an in-process proxy.
type testCluster struct {
	sp *cluster.Spawner
	p  *cluster.Proxy
	hs *httptest.Server
	c  *client.Client
}

// startCluster boots the fixture. The background health checker stays
// off; tests that need a sweep call p.CheckReplicas explicitly, so
// nothing in here is timing-dependent.
func startCluster(t testing.TB, n int, cfg service.Config) *testCluster {
	t.Helper()
	sp, err := cluster.Spawn(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sp.Close)
	p, err := cluster.New(cluster.Config{Replicas: sp.URLs()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(p.Handler())
	t.Cleanup(hs.Close)
	return &testCluster{sp: sp, p: p, hs: hs, c: client.New(hs.URL, hs.Client())}
}

// replicaByURL finds the spawned replica behind a base URL.
func (tc *testCluster) replicaByURL(t testing.TB, url string) *cluster.Replica {
	t.Helper()
	for _, rep := range tc.sp.Replicas {
		if rep.URL == url {
			return rep
		}
	}
	t.Fatalf("no replica with URL %q among %v", url, tc.sp.URLs())
	return nil
}

// genSets builds n distinct feasible-ish sporadic workloads.
func genSets(t testing.TB, n int, seed int64) []edf.TaskSet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]edf.TaskSet, 0, n)
	for len(out) < n {
		ts, err := edf.Generate(edf.GenConfig{
			N: 8, Utilization: 0.75,
			PeriodMin: 100, PeriodMax: 10000, GapMean: 0.2,
		}, rng)
		if err != nil {
			continue
		}
		out = append(out, ts)
	}
	return out
}

func eventSet() []edf.EventTask {
	return []edf.EventTask{
		{Name: "periodic", WCET: 2, Deadline: 9, Stream: edf.PeriodicStream(10)},
		{Name: "burst", WCET: 1, Deadline: 24, Stream: edf.BurstStream(50, 3, 4)},
	}
}

// TestProxyAnalyzeAffinity is the point of the whole subsystem: repeated
// identical workloads must land on the same replica and hit its cache,
// while distinct workloads spread across the fleet.
func TestProxyAnalyzeAffinity(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	sets := genSets(t, 24, 11)
	servedBy := map[string]int{}
	for i, ts := range sets {
		first, rt1, err := tc.c.Analyze(ctx, service.AnalyzeRequest{
			Name: fmt.Sprintf("set-%d", i), Workload: edf.SporadicWorkload(ts),
		})
		if err != nil {
			t.Fatalf("analyze set %d: %v", i, err)
		}
		if first.Cached {
			t.Fatalf("set %d: first analysis already cached", i)
		}
		if rt1.Replica == "" || rt1.Attempts != 1 {
			t.Fatalf("set %d: route %+v", i, rt1)
		}
		again, rt2, err := tc.c.Analyze(ctx, service.AnalyzeRequest{
			Name: fmt.Sprintf("set-%d", i), Workload: edf.SporadicWorkload(ts),
		})
		if err != nil {
			t.Fatalf("re-analyze set %d: %v", i, err)
		}
		if !again.Cached {
			t.Errorf("set %d: repeat was not a cache hit", i)
		}
		if rt2.Replica != rt1.Replica {
			t.Errorf("set %d: repeat routed to %s, first to %s", i, rt2.Replica, rt1.Replica)
		}
		if again.Fingerprint != first.Fingerprint {
			t.Errorf("set %d: fingerprint changed across repeats", i)
		}
		servedBy[rt1.Replica]++
	}
	// 24 distinct fingerprints over 2 replicas: both must see traffic.
	if len(servedBy) != 2 {
		t.Errorf("all workloads routed to one replica: %v", servedBy)
	}
	// The replicas' own cache counters must corroborate the affinity: one
	// hit per repeated workload, fleet-wide.
	var hits uint64
	for _, rep := range tc.sp.Replicas {
		hits += rep.Server().CacheStats().Hits
	}
	if hits != uint64(len(sets)) {
		t.Errorf("fleet cache hits = %d, want %d", hits, len(sets))
	}
}

// TestProxyAnalyzeEventsDomain checks the events model routes and caches
// through the proxy too, in its own fingerprint domain.
func TestProxyAnalyzeEventsDomain(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	ev, _, err := tc.c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.EventWorkload(eventSet())})
	if err != nil {
		t.Fatal(err)
	}
	sp, _, err := tc.c.Analyze(ctx, service.AnalyzeRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 2, Deadline: 9, Period: 10}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Fingerprint == sp.Fingerprint {
		t.Fatalf("event and sporadic workloads share fingerprint %s", ev.Fingerprint)
	}
	if ev.Model != "events" {
		t.Fatalf("event analysis reported model %q", ev.Model)
	}
	again, _, err := tc.c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.EventWorkload(eventSet())})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("repeated event workload missed the cache")
	}
}

// TestProxyBatchSplitMerge drives a mixed-model batch large enough to be
// split across both replicas and pins the merge contract: set-major
// order, original set indices, per-set analyzer order, and a
// byte-identical response on repetition.
func TestProxyBatchSplitMerge(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	analyzers := []string{"allapprox", "cascade"}
	req := service.BatchRequest{Analyzers: analyzers}
	for i, ts := range genSets(t, 15, 7) {
		req.Sets = append(req.Sets, service.WorkloadSet{
			Name: fmt.Sprintf("set-%d", i), Workload: edf.SporadicWorkload(ts),
		})
	}
	req.Sets = append(req.Sets, service.WorkloadSet{Name: "events", Workload: edf.EventWorkload(eventSet())})

	resp, rt, err := tc.c.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(req.Sets) * len(analyzers); len(resp.Results) != want {
		t.Fatalf("got %d results, want %d", len(resp.Results), want)
	}
	for i, jr := range resp.Results {
		wantSet, wantAnalyzer := i/len(analyzers), analyzers[i%len(analyzers)]
		if jr.SetIndex != wantSet {
			t.Fatalf("result %d: set index %d, want %d", i, jr.SetIndex, wantSet)
		}
		if jr.SetName != req.Sets[wantSet].Name {
			t.Fatalf("result %d: set name %q, want %q", i, jr.SetName, req.Sets[wantSet].Name)
		}
		if jr.Analyzer != wantAnalyzer {
			t.Fatalf("result %d: analyzer %q, want %q", i, jr.Analyzer, wantAnalyzer)
		}
		if jr.Err != "" {
			t.Fatalf("job %d (%s/%s) failed: %s", i, jr.SetName, jr.Analyzer, jr.Err)
		}
	}
	// 16 distinct fingerprints over 2 replicas virtually guarantees a
	// split; the header then names both replicas.
	if strings.Contains(rt.Replica, ",") {
		for _, rep := range strings.Split(rt.Replica, ",") {
			tc.replicaByURL(t, rep) // must be a real fleet member
		}
	}

	// Determinism + affinity: the identical batch re-merges to the exact
	// same payload, now fully from the caches.
	again, _, err := tc.c.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range again.Results {
		if !jr.Cached {
			t.Errorf("repeat job %d (%s/%s) missed the cache", i, jr.SetName, jr.Analyzer)
		}
	}
	norm := func(r service.BatchResponse) string {
		for i := range r.Results {
			r.Results[i].WallNS = 0 // timing differs; order and content must not
			r.Results[i].Cached = false
		}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := norm(resp), norm(again); a != b {
		t.Fatalf("batch responses differ across identical requests:\n%s\nvs\n%s", a, b)
	}
}

// TestProxySessionSticky opens a session through the proxy and checks
// every follow-up verb lands on the owning replica.
func TestProxySessionSticky(t *testing.T) {
	tc := startCluster(t, 3, service.Config{})
	ctx := context.Background()
	seed := edf.TaskSet{
		{Name: "ctrl", WCET: 2, Deadline: 8, Period: 10},
		{Name: "io", WCET: 3, Deadline: 15, Period: 15},
	}
	h, state, err := tc.c.OpenSession(ctx, service.SessionRequest{Workload: edf.SporadicWorkload(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if state.Committed != 2 {
		t.Fatalf("seed not committed: %+v", state)
	}
	// Drive several verbs; each must succeed against the same owner. The
	// owner is observable via the sessions_active metric of exactly one
	// replica.
	for i := range 4 {
		presp, err := h.Propose(ctx, service.ProposeRequest{
			Task: service.SporadicTask(edf.Task{Name: "t" + strconv.Itoa(i), WCET: 1, Deadline: 80, Period: 100 + int64(i)}),
		})
		if err != nil {
			t.Fatalf("propose %d: %v", i, err)
		}
		if !presp.Admitted {
			t.Fatalf("propose %d rejected: %+v", i, presp)
		}
	}
	if _, err := h.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	st, _, err := h.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed != 6 || st.Pending != 0 {
		t.Fatalf("state after commit: %+v", st)
	}
	// Count replicas holding a session: stickiness means exactly one.
	owner, owners := "", 0
	for _, rep := range tc.sp.Replicas {
		mtext, err := client.New(rep.URL, nil).Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(mtext, "edfd_sessions_active 1") {
			owner = rep.URL
			owners++
		}
	}
	if owners != 1 {
		t.Fatalf("session lives on %d replicas, want exactly 1", owners)
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}
	mtext, err := client.New(owner, nil).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mtext, "edfd_sessions_active 0") {
		t.Error("session not closed on its owner")
	}
}

// TestProxyForwardsEscapedSessionPath checks that edfproxy forwards a
// session path as the client escaped it. An id that extends a live one by
// an escaped '?' or '#' names no session on edfd, so the proxy must not
// reach the live session through it, on the owner's route or on the
// takeover route.
func TestProxyForwardsEscapedSessionPath(t *testing.T) {
	send := func(method, url string) int {
		t.Helper()
		req, err := http.NewRequest(method, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	ctx := context.Background()

	// The owner's route: with one replica, every id's owner is the one
	// holding the session, and both daemons must answer 404.
	tc := startCluster(t, 1, service.Config{})
	h, _, err := tc.c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ method, suffix string }{
		{http.MethodDelete, "%3Fx"}, {http.MethodDelete, "%23x"}, {http.MethodGet, "%3Fx"},
	} {
		path := "/v1/sessions/" + h.ID + c.suffix
		direct, proxied := send(c.method, tc.sp.URLs()[0]+path), send(c.method, tc.hs.URL+path)
		if direct != http.StatusNotFound || proxied != direct {
			t.Errorf("%s %s: edfd %d, edfproxy %d, want 404 from both", c.method, path, direct, proxied)
		}
	}
	if _, _, err := h.State(ctx); err != nil {
		t.Fatalf("session %s after the escaped paths: %v", h.ID, err)
	}

	// The takeover route: an id whose ring guess is the dead owner goes to
	// the peer, which shares the store but knows no session by that id, so
	// the proxy answers the orphan 503 and the session survives.
	tc = startSharedCluster(t, 2)
	h, _, err = tc.c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	_, rt, err := h.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ring := ringOf(tc.sp.URLs()...)
	key := ""
	for i := 0; ring.Get(h.ID+"?"+key) != rt.Owner; i++ {
		key = "x" + strconv.Itoa(i)
	}
	tc.replicaByURL(t, rt.Owner).Kill()
	path := "/v1/sessions/" + h.ID + "%3F" + key
	if status := send(http.MethodDelete, tc.hs.URL+path); status != http.StatusServiceUnavailable {
		t.Errorf("DELETE %s after its owner died: %d, want 503", path, status)
	}
	if _, rt, err := h.State(ctx); err != nil || !rt.TakenOver() {
		t.Fatalf("session %s after the escaped path: route %+v, %v; want taken over", h.ID, rt, err)
	}
}

// TestProxyMetricsAggregate checks the merged metrics page: proxy
// counters, fleet-summed replica counters, a recomputed hit rate and
// per-replica labeled lines.
func TestProxyMetricsAggregate(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	wl := edf.SporadicWorkload(edf.TaskSet{{WCET: 2, Deadline: 9, Period: 10}})
	for range 3 {
		if _, _, err := tc.c.Analyze(ctx, service.AnalyzeRequest{Workload: wl}); err != nil {
			t.Fatal(err)
		}
	}
	text := mustMetrics(t, tc.c)
	// requests_total counts every request entering the proxy — the three
	// analyzes plus this very metrics scrape.
	for _, want := range []string{
		"edfproxy_requests_total 4",
		"edfproxy_analyze_routed_total 3",
		"edfproxy_replicas_healthy 2",
		"edfproxy_failovers_total 0",
		"edfd_analyses_total 3",
		"edfd_cache_hits 2",
		"edfd_cache_hit_rate 0.6667",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
	// Per-replica lines: the repeated workload hit exactly one replica's
	// cache; the other replica reports zero hits.
	hot, cold := 0, 0
	for _, rep := range tc.sp.Replicas {
		if strings.Contains(text, fmt.Sprintf("edfd_cache_hits{replica=%q} 2", rep.URL)) {
			hot++
		}
		if strings.Contains(text, fmt.Sprintf("edfd_cache_hits{replica=%q} 0", rep.URL)) {
			cold++
		}
	}
	if hot != 1 || cold != 1 {
		t.Errorf("per-replica cache hits not concentrated (hot=%d cold=%d):\n%s", hot, cold, text)
	}
}

func mustMetrics(t testing.TB, c *client.Client) string {
	t.Helper()
	text, err := c.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// TestProxyAnalyzersForward checks registry listing passes through.
func TestProxyAnalyzersForward(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	list, err := tc.c.Analyzers(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range list {
		names[a.Name] = true
	}
	for _, want := range []string{"cascade", "qpa", "pd"} {
		if !names[want] {
			t.Errorf("analyzer listing missing %q: %v", want, names)
		}
	}
}

// TestProxySplitBatchRelaysClientError pins that a replica's
// authoritative 4xx keeps its status through the split path: an unknown
// analyzer is the client's mistake (400) regardless of how many
// replicas the batch sharded across.
func TestProxySplitBatchRelaysClientError(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	req := service.BatchRequest{Analyzers: []string{"no-such-analyzer"}}
	for i, ts := range genSets(t, 16, 59) { // 16 sets: a split is near-certain
		req.Sets = append(req.Sets, service.WorkloadSet{
			Name: fmt.Sprintf("set-%d", i), Workload: edf.SporadicWorkload(ts),
		})
	}
	_, _, err := tc.c.Batch(context.Background(), req)
	var ce *client.Error
	if !errors.As(err, &ce) {
		t.Fatalf("err %v, want client.Error", err)
	}
	if ce.StatusCode != 400 {
		t.Fatalf("unknown analyzer through the split path: status %d, want 400", ce.StatusCode)
	}
	if !strings.Contains(ce.Message, "no-such-analyzer") {
		t.Fatalf("relayed error lost the replica's message: %q", ce.Message)
	}
}

// TestProxyBadRequests pins the proxy's own error contract.
func TestProxyBadRequests(t *testing.T) {
	tc := startCluster(t, 1, service.Config{})
	resp, err := tc.hs.Client().Post(tc.hs.URL+"/v1/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed analyze body: status %d", resp.StatusCode)
	}
	var er service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil || er.Error == "" {
		t.Fatalf("error body not the uniform schema: %v %+v", err, er)
	}
	// Unknown session id: proxied to a replica, which answers 404.
	resp2, err := tc.hs.Client().Get(tc.hs.URL + "/v1/sessions/no-such-id")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("unknown session: status %d", resp2.StatusCode)
	}
}
