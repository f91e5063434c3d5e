package cluster_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	edf "repro"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
)

// startSharedCluster boots n replicas over one shared store directory
// behind a proxy — the takeover deployment.
func startSharedCluster(t testing.TB, n int) *testCluster {
	t.Helper()
	sp, err := cluster.SpawnShared(n, service.Config{}, t.TempDir())
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

// TestSessionTakeover is the headline of the durable-state subsystem:
// with a shared store, killing a session's owner no longer 503s — the
// proxy reassigns the session to a surviving peer, which rehydrates the
// committed state from the shared directory and keeps deciding.
func TestSessionTakeover(t *testing.T) {
	tc := startSharedCluster(t, 2)
	ctx := context.Background()

	h, state, err := tc.c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 10, Deadline: 90, Period: 100}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if state.Committed != 1 {
		t.Fatalf("fresh session: %+v", state)
	}
	if resp, err := h.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "a", WCET: 5, Deadline: 40, Period: 50}),
	}); err != nil || !resp.Admitted {
		t.Fatalf("propose: %+v, %v", resp, err)
	}
	if _, err := h.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Learn the sticky owner from the route metadata, then kill it.
	_, rt, err := h.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Owner == "" || rt.TakenOver() {
		t.Fatalf("healthy route: %+v", rt)
	}
	owner := rt.Owner
	tc.replicaByURL(t, owner).Kill()

	// The next touch is served by the takeover peer, attributed as such,
	// with the committed admission state intact.
	resp, rt2, err := h.ProposeRouted(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "b", WCET: 1, Deadline: 200, Period: 200}),
	})
	if err != nil {
		t.Fatalf("propose after owner death: %v", err)
	}
	if !resp.Admitted || resp.Committed != 2 {
		t.Fatalf("post-takeover propose: %+v, want admitted with committed=2", resp)
	}
	if rt2.TakenOverFrom != owner {
		t.Fatalf("route %+v: TakenOverFrom = %q, want %q", rt2, rt2.TakenOverFrom, owner)
	}
	if rt2.Replica == owner || rt2.Owner == owner {
		t.Fatalf("route %+v still names the dead owner", rt2)
	}

	// The session now sticks to the new owner: no takeover attribution on
	// the next request, and commit lands normally.
	_, rt3, err := h.State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rt3.TakenOver() || rt3.Owner != rt2.Owner {
		t.Fatalf("post-takeover route not sticky: %+v vs %+v", rt3, rt2)
	}
	if cm, err := h.Commit(ctx); err != nil || cm.Committed != 3 {
		t.Fatalf("commit on new owner: %+v, %v", cm, err)
	}

	text := mustMetrics(t, tc.c)
	if !strings.Contains(text, "edfproxy_takeover_total 1") {
		t.Errorf("metrics missing takeover count:\n%s", grepLines(text, "takeover"))
	}
	if !strings.Contains(text, "edfproxy_session_owner_unavailable 0") {
		t.Errorf("orphan 503 counted despite successful takeover:\n%s", grepLines(text, "owner_unavailable"))
	}
}

// TestTakeoverDrainsManySessions kills an owner while several sessions
// are live and checks every session keeps answering through the proxy
// with no client-visible error — the edfsmoke drain scenario in-process.
func TestTakeoverDrainsManySessions(t *testing.T) {
	tc := startSharedCluster(t, 3)
	ctx := context.Background()

	const sessions = 12
	handles := make([]*client.Session, sessions)
	for i := range handles {
		h, _, err := tc.c.OpenSession(ctx, service.SessionRequest{
			Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 1, Deadline: 400, Period: 500}}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := h.Propose(ctx, service.ProposeRequest{
			Task: service.SporadicTask(edf.Task{Name: "w", WCET: 2, Deadline: 300, Period: 300}),
		}); err != nil || !resp.Admitted {
			t.Fatalf("session %d propose: %+v, %v", i, resp, err)
		}
		if _, err := h.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	// Kill whichever replica owns session 0; its other sessions ride the
	// same takeover path, sessions of surviving owners are untouched.
	_, rt, err := handles[0].State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	tc.replicaByURL(t, rt.Owner).Kill()

	for i, h := range handles {
		resp, _, err := h.ProposeRouted(ctx, service.ProposeRequest{
			Task: service.SporadicTask(edf.Task{Name: "x", WCET: 1, Deadline: 250, Period: 250}),
		})
		if err != nil {
			t.Fatalf("session %d after owner death: %v", i, err)
		}
		if !resp.Admitted || resp.Committed != 2 {
			t.Fatalf("session %d post-kill propose: %+v", i, resp)
		}
	}
	text := mustMetrics(t, tc.c)
	if strings.Contains(text, "edfproxy_takeover_total 0") {
		t.Error("no takeovers recorded despite a dead owner")
	}
}

// grepLines filters a metrics page to lines mentioning a substring, for
// readable failure output.
func grepLines(text, substr string) string {
	var out []string
	for _, ln := range strings.Split(text, "\n") {
		if strings.Contains(ln, substr) {
			out = append(out, ln)
		}
	}
	return strings.Join(out, "\n")
}
