package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	edf "repro"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// spanNames collects a trace's span names for containment checks.
func spanNames(tr obs.Trace) map[string]bool {
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// hasReplicaSpan reports whether any span is labeled with a replica —
// the mark of a merged fleet trace.
func hasReplicaSpan(tr obs.Trace) bool {
	for _, sp := range tr.Spans {
		if sp.Replica != "" {
			return true
		}
	}
	return false
}

// TestProxyTraceRoundTrip pins the cross-layer trace contract: a trace
// ID minted at the proxy propagates to the replica, and resolving it at
// the proxy yields the merged view — proxy routing spans and the
// replica's own spans, labeled with their origin — for analyze, batch
// and session propose alike.
func TestProxyTraceRoundTrip(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx := context.Background()
	wl := edf.SporadicWorkload(edf.TaskSet{{Name: "a", WCET: 2, Deadline: 8, Period: 10}})

	// Analyze: the proxy's forward span plus the replica's cache+analyze.
	_, rt, err := tc.c.Analyze(ctx, service.AnalyzeRequest{Name: "traced", Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	if rt.TraceID == "" {
		t.Fatal("proxied analyze carried no trace id")
	}
	tr, err := tc.c.Trace(ctx, rt.TraceID)
	if err != nil {
		t.Fatalf("resolving analyze trace: %v", err)
	}
	names := spanNames(tr)
	for _, want := range []string{"forward", "cache", "analyze"} {
		if !names[want] {
			t.Fatalf("merged analyze trace lacks %q span: %v", want, tr.Spans)
		}
	}
	if !hasReplicaSpan(tr) {
		t.Fatalf("analyze trace has no replica-labeled span: %v", tr.Spans)
	}

	// Batch: the replicas' batch spans, plus — whenever the sets hashed
	// onto more than one replica — the proxy's per-sub-batch spans. A
	// single-owner batch takes the forward fast path instead; which case
	// ran is visible in Route.Replica (comma-joined when split).
	var breq service.BatchRequest
	breq.Analyzers = []string{"cascade"}
	for i, ts := range genSets(t, 16, 77) {
		breq.Sets = append(breq.Sets, service.WorkloadSet{
			Name: "set-" + string(rune('a'+i)), Workload: edf.SporadicWorkload(ts),
		})
	}
	_, brt, err := tc.c.Batch(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	btr, err := tc.c.Trace(ctx, brt.TraceID)
	if err != nil {
		t.Fatalf("resolving batch trace: %v", err)
	}
	bnames := spanNames(btr)
	if !bnames["batch"] {
		t.Fatalf("merged batch trace lacks the replica batch span: %v", btr.Spans)
	}
	proxySpan := "forward"
	if strings.Contains(brt.Replica, ",") {
		proxySpan = "sub-batch"
	}
	if !bnames[proxySpan] {
		t.Fatalf("batch served by %q but trace lacks %q span: %v", brt.Replica, proxySpan, btr.Spans)
	}

	// Session propose: the proxy's route span plus the replica's propose
	// span, under the session-tagged trace.
	h, _, err := tc.c.OpenSession(ctx, service.SessionRequest{Workload: wl})
	if err != nil {
		t.Fatal(err)
	}
	preq := service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "p", WCET: 1, Deadline: 50, Period: 100}),
	}
	resp, err := postForTrace(tc, "/v1/sessions/"+h.ID+"/propose", preq)
	if err != nil {
		t.Fatal(err)
	}
	ptr, err := tc.c.Trace(ctx, resp)
	if err != nil {
		t.Fatalf("resolving propose trace: %v", err)
	}
	if ptr.Session != h.ID {
		t.Fatalf("propose trace tagged with session %q, want %q", ptr.Session, h.ID)
	}
	pnames := spanNames(ptr)
	if !pnames["route"] || !pnames["propose"] {
		t.Fatalf("merged propose trace lacks route/propose spans: %v", ptr.Spans)
	}
	if !hasReplicaSpan(ptr) {
		t.Fatalf("propose trace has no replica-labeled span: %v", ptr.Spans)
	}
}

// postForTrace posts a JSON request through the proxy and returns the
// X-Edf-Trace response header (the typed client's session methods do
// not surface routing metadata).
func postForTrace(tc *testCluster, path string, in any) (string, error) {
	payload, err := json.Marshal(in)
	if err != nil {
		return "", err
	}
	resp, err := tc.hs.Client().Post(tc.hs.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("POST %s: status %d", path, resp.StatusCode)
	}
	return resp.Header.Get(obs.TraceHeader), nil
}

// TestProxyFleetFeedContinuity subscribes to the fleet feed, then kills
// a replica mid-stream: events already relayed stay delivered, and the
// surviving replica's events keep flowing — with their replica label —
// through the same subscription.
func TestProxyFleetFeedContinuity(t *testing.T) {
	tc := startCluster(t, 2, service.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Distinct seed workloads: session creation routes by the seed's
	// fingerprint, so identical seeds would pile onto one replica.
	seeds := genSets(t, 24, 59)

	ch, err := tc.c.FleetEvents(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// The proxy's per-replica relays connect asynchronously after the
	// subscription returns, so a session opened immediately can slip by
	// unobserved. Open sessions until one's open event arrives — from
	// then on the relays are live — and keep opening until both replicas
	// own at least one observed session.
	owners := map[string]string{} // session -> replica label
	deadline := time.After(15 * time.Second)
	sessions := map[string]*client.Session{}
	distinct := map[string]bool{}
	for len(distinct) < 2 {
		if len(sessions) >= len(seeds) {
			t.Fatalf("all %d distinct seeds routed to one replica: %v", len(seeds), distinct)
		}
		h, _, err := tc.c.OpenSession(ctx, service.SessionRequest{
			Workload: edf.SporadicWorkload(seeds[len(sessions)]),
		})
		if err != nil {
			t.Fatal(err)
		}
		sessions[h.ID] = h
	drain:
		for {
			select {
			case ev := <-ch:
				if ev.Type == obs.EventOpen && sessions[ev.Session] != nil {
					if ev.Replica == "" {
						t.Fatalf("fleet event missing replica label: %+v", ev)
					}
					owners[ev.Session] = ev.Replica
					distinct[ev.Replica] = true
				}
			case <-time.After(300 * time.Millisecond):
				break drain
			case <-deadline:
				t.Fatalf("fleet feed never observed sessions on 2 replicas: %v", owners)
			}
		}
	}

	// Pick a session per replica, kill one owner.
	var victimSession, survivorSession string
	for id, rep := range owners {
		if victimSession == "" {
			victimSession = id
		} else if rep != owners[victimSession] && survivorSession == "" {
			survivorSession = id
		}
	}
	tc.replicaByURL(t, owners[victimSession]).Kill()

	// The survivor's decisions must keep arriving on the same stream.
	h := sessions[survivorSession]
	const proposes = 5
	for i := range proposes {
		if _, err := h.Propose(ctx, service.ProposeRequest{
			Task: service.SporadicTask(edf.Task{Name: "c", WCET: 1, Deadline: int64(60 + i), Period: 1000}),
		}); err != nil {
			t.Fatalf("propose %d after kill: %v", i, err)
		}
	}
	got := 0
	for got < proposes {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatal("fleet feed closed after replica kill")
			}
			if ev.Session != survivorSession {
				continue
			}
			if ev.Type != obs.EventAdmit && ev.Type != obs.EventReject {
				continue
			}
			if ev.Replica != owners[survivorSession] {
				t.Fatalf("post-kill event labeled %q, want %q", ev.Replica, owners[survivorSession])
			}
			if ev.Trace == "" {
				t.Fatalf("post-kill decision missing trace: %+v", ev)
			}
			got++
		case <-time.After(10 * time.Second):
			t.Fatalf("fleet feed stalled after replica kill: %d/%d decisions", got, proposes)
		}
	}
}

// TestSSEHeaders pins the server-sent-events headers of every feed:
// edfd's server-wide and per-session feeds and the fleet feed through
// edfproxy come from one SSE loop, and the proxied per-session feed
// relays the replica's headers.
func TestSSEHeaders(t *testing.T) {
	tc := startCluster(t, 1, service.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h, _, err := tc.c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	rep := tc.sp.Replicas[0].URL
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	for _, feed := range []struct{ name, url string }{
		{"edfd /v1/events", rep + "/v1/events"},
		{"edfd /v1/sessions/{id}/events", rep + "/v1/sessions/" + h.ID + "/events"},
		{"edfproxy /v1/events", tc.hs.URL + "/v1/events"},
		{"edfproxy /v1/sessions/{id}/events", tc.hs.URL + "/v1/sessions/" + h.ID + "/events"},
	} {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, feed.url, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatalf("%s: %v", feed.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", feed.name, resp.StatusCode)
		}
		for header, want := range map[string]string{
			"Content-Type":      obs.SSEContentType,
			"Cache-Control":     "no-cache",
			"X-Accel-Buffering": "no",
		} {
			if got := resp.Header.Get(header); got != want {
				t.Errorf("%s: %s = %q, want %q", feed.name, header, got, want)
			}
		}
	}
}
