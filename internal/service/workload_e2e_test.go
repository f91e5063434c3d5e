// End-to-end coverage of the workload redesign: event-stream workloads
// over the wire, fingerprint domain separation through the cache,
// propose-batch, and session idle-TTL sweeping.
package service_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	edf "repro"
	"repro/internal/service"
	"repro/internal/service/client"
)

func e2eEventTasks() []edf.EventTask {
	return []edf.EventTask{
		{Name: "periodic", WCET: 2, Deadline: 9, Stream: edf.PeriodicStream(10)},
		{Name: "burst", WCET: 1, Deadline: 24, Stream: edf.BurstStream(50, 3, 4)},
	}
}

// TestE2EEventWorkloadAnalyze round-trips an event workload through
// /v1/analyze: correct verdict vs the facade, a cache hit on the repeat,
// and a fingerprint distinct from the sporadic encoding of comparable
// numbers.
func TestE2EEventWorkloadAnalyze(t *testing.T) {
	srv, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	tasks := e2eEventTasks()

	direct, err := edf.AnalyzeWorkload(mustAnalyzer(t, "cascade"), edf.EventWorkload(tasks), edf.Options{})
	if err != nil {
		t.Fatal(err)
	}

	first, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "ev", Workload: edf.EventWorkload(tasks)})
	if err != nil {
		t.Fatal(err)
	}
	if first.Model != "events" || first.Analyzer != "cascade" {
		t.Errorf("response identity: %+v", first)
	}
	if first.Result.Verdict != direct.Verdict.String() {
		t.Errorf("service says %s, facade says %s", first.Result.Verdict, direct.Verdict)
	}
	if first.Cached || first.Fingerprint == "" {
		t.Errorf("first call: cached=%v fingerprint=%q", first.Cached, first.Fingerprint)
	}

	// The repeat must be a cache hit on the same address.
	again, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "ev", Workload: edf.EventWorkload(tasks)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.Fingerprint != first.Fingerprint {
		t.Errorf("repeat: cached=%v fp=%q want %q", again.Cached, again.Fingerprint, first.Fingerprint)
	}
	if st := srv.CacheStats(); st.Hits == 0 {
		t.Errorf("cache never hit: %+v", st)
	}

	// Domain separation end to end: a sporadic set built from the same
	// (C, D, T=cycle) numbers must get a different fingerprint.
	sporadic := edf.TaskSet{{WCET: 2, Deadline: 9, Period: 10}}
	sp, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.SporadicWorkload(sporadic)})
	if err != nil {
		t.Fatal(err)
	}
	evTwin, _, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: edf.EventWorkload([]edf.EventTask{
		{WCET: 2, Deadline: 9, Stream: edf.PeriodicStream(10)},
	})})
	if err != nil {
		t.Fatal(err)
	}
	if sp.Fingerprint == evTwin.Fingerprint {
		t.Errorf("sporadic and event twins share fingerprint %s", sp.Fingerprint)
	}
	if evTwin.Cached || sp.Cached {
		t.Errorf("twins unexpectedly cached: %v %v", sp.Cached, evTwin.Cached)
	}
}

func mustAnalyzer(t *testing.T, name string) edf.Analyzer {
	t.Helper()
	a, ok := edf.AnalyzerByName(name)
	if !ok {
		t.Fatalf("analyzer %q missing", name)
	}
	return a
}

// TestE2EEventWorkloadBatch mixes both models in one batch and checks the
// capability gate: event workloads on a non-event analyzer report the
// typed error per job without failing the request.
func TestE2EEventWorkloadBatch(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	req := service.BatchRequest{
		Sets: []service.WorkloadSet{
			{Name: "s", Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 2, Deadline: 8, Period: 10}})},
			{Name: "e", Workload: edf.EventWorkload(e2eEventTasks())},
		},
		Analyzers: []string{"qpa", "allapprox"},
	}
	resp, _, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	// Jobs 0,1: sporadic set on qpa and allapprox — both fine.
	for i := range 2 {
		if resp.Results[i].Err != "" || resp.Results[i].Model != "sporadic" {
			t.Errorf("job %d: %+v", i, resp.Results[i])
		}
	}
	// Job 2: events x qpa — capability error, undecided, never cached.
	if jr := resp.Results[2]; jr.Err == "" || jr.Result.Verdict != "undecided" || jr.Cached {
		t.Errorf("events x qpa: %+v", jr)
	}
	// Job 3: events x allapprox — runs.
	if jr := resp.Results[3]; jr.Err != "" || jr.Model != "events" || jr.Result.Verdict != "feasible" {
		t.Errorf("events x allapprox: %+v", jr)
	}

	// The repeat caches the runnable jobs and re-reports the capability
	// error deterministically.
	resp2, _, err := c.Batch(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range resp2.Results {
		if i == 2 {
			if jr.Err == "" || jr.Cached {
				t.Errorf("repeat events x qpa: %+v", jr)
			}
			continue
		}
		if !jr.Cached {
			t.Errorf("repeat job %d not cached: %+v", i, jr)
		}
	}

	// An event workload on an explicitly non-event analyzer via analyze
	// is a client error, not a 5xx.
	_, _, err = c.Analyze(ctx, service.AnalyzeRequest{
		Workload: edf.EventWorkload(e2eEventTasks()), Analyzer: "qpa",
	})
	var ce *client.Error
	if !asClientError(err, &ce) || ce.StatusCode != 422 {
		t.Errorf("events on qpa via analyze: %v", err)
	}
}

// TestE2EEventOffsetOverflowRejected posts an event task whose offset
// plus deadline does not fit in int64. Its first deadline has no int64
// value, so the workload is invalid (422) under every analyzer; lowered
// unchecked, the deadline wraps negative and the exact tests report a
// feasible set infeasible.
func TestE2EEventOffsetOverflowRejected(t *testing.T) {
	srv := service.New(service.Config{})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	const tasks = `"model":"events","tasks":[` +
		`{"wcet":3,"deadline":10,"stream":[{"cycle":0,"offset":9223372036854775803}]},` +
		`{"wcet":1,"deadline":10,"stream":[{"cycle":10,"offset":0}]}]`
	for _, analyzer := range []string{"", "pd", "allapprox"} {
		body := `{` + tasks + `}`
		if analyzer != "" {
			body = `{` + tasks + `,"analyzer":"` + analyzer + `"}`
		}
		var out map[string]any
		if resp := postRaw(t, hs, "/v1/analyze", body, &out); resp.StatusCode != 422 {
			t.Errorf("analyzer %q: status %d (%v), want 422", analyzer, resp.StatusCode, out)
		}
	}
}

// TestE2EEventSessionLifecycle drives an event-model admission session:
// seeding fixes the model, proposals must match it, and verdicts agree
// with the cascade's event path.
func TestE2EEventSessionLifecycle(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	sess, state, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.EventWorkload(e2eEventTasks()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if state.Model != "events" || state.Committed != 2 {
		t.Fatalf("open state: %+v", state)
	}

	// A sporadic proposal into an event session is refused outright.
	_, err = sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{WCET: 1, Deadline: 10, Period: 10}),
	})
	var ce *client.Error
	if !asClientError(err, &ce) || ce.StatusCode != 422 {
		t.Errorf("cross-model propose: %v", err)
	}

	// An admissible event task stages; an overload event task is rejected
	// by the utilization gate.
	ok, err := sess.Propose(ctx, service.ProposeRequest{
		Task: service.EventTask(edf.EventTask{Name: "x", WCET: 1, Deadline: 30, Stream: edf.PeriodicStream(100)}),
	})
	if err != nil || !ok.Admitted || ok.Pending != 1 {
		t.Fatalf("event propose: %+v, %v", ok, err)
	}
	hog, err := sess.Propose(ctx, service.ProposeRequest{
		Task: service.EventTask(edf.EventTask{Name: "hog", WCET: 90, Deadline: 100, Stream: edf.PeriodicStream(100)}),
	})
	if err != nil || hog.Admitted || hog.Result.Verdict != "infeasible" {
		t.Fatalf("event overload: %+v, %v", hog, err)
	}
	if commit, err := sess.Commit(ctx); err != nil || commit.Committed != 3 {
		t.Fatalf("commit: %+v, %v", commit, err)
	}
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestE2EProposeBatch pins the bulk endpoint: verdicts in order, each
// decision seeing its predecessors, state identical to the equivalent
// singles.
func TestE2EProposeBatch(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	sess, _, err := c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// Three tasks of 40% each: the third must fail the utilization gate
	// because the first two are already staged when it is decided.
	task := func(name string) service.WorkloadTask {
		return service.SporadicTask(edf.Task{Name: name, WCET: 40, Deadline: 90, Period: 100})
	}
	resp, err := sess.ProposeBatch(ctx, service.ProposeBatchRequest{
		Tasks: []service.WorkloadTask{task("a"), task("b"), task("c")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d verdicts", len(resp.Results))
	}
	if !resp.Results[0].Admitted || !resp.Results[1].Admitted {
		t.Errorf("first two rejected: %+v", resp.Results)
	}
	if resp.Results[2].Admitted {
		t.Errorf("third admitted past the budget: %+v", resp.Results[2])
	}
	if p := resp.Results[2].Pending; p != 2 {
		t.Errorf("pending after bulk: %d", p)
	}

	// An empty batch is a client error.
	_, err = sess.ProposeBatch(ctx, service.ProposeBatchRequest{})
	var ce *client.Error
	if !asClientError(err, &ce) || ce.StatusCode != 422 {
		t.Errorf("empty propose-batch: %v", err)
	}

	// A malformed member fails the whole batch without staging anything.
	_, err = sess.ProposeBatch(ctx, service.ProposeBatchRequest{
		Tasks: []service.WorkloadTask{
			task("ok"),
			service.SporadicTask(edf.Task{Name: "bad", WCET: -1, Deadline: 1, Period: 1}),
		},
	})
	if !asClientError(err, &ce) || ce.StatusCode != 422 {
		t.Errorf("invalid member: %v", err)
	}
	state, _, err := sess.State(ctx)
	if err != nil || state.Pending != 2 {
		t.Errorf("state changed on failed batch: %+v, %v", state, err)
	}
}

// TestE2EProposeBatchConcurrent races bulk proposals from several clients
// and checks the invariant the per-session lock must hold: the number of
// admitted verdicts equals the final task count, and utilization never
// exceeds 1.
func TestE2EProposeBatchConcurrent(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()
	sess, _, err := c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients = 8
		perReq  = 5
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		admitted int
	)
	for g := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var tasks []service.WorkloadTask
			for i := range perReq {
				tasks = append(tasks, service.SporadicTask(edf.Task{
					Name: fmt.Sprintf("g%d-%d", g, i),
					WCET: 3, Deadline: 80, Period: 100, // 3% each, ~33 fit
				}))
			}
			resp, err := sess.ProposeBatch(ctx, service.ProposeBatchRequest{Tasks: tasks})
			if err != nil {
				t.Error(err)
				return
			}
			if len(resp.Results) != perReq {
				t.Errorf("client %d: %d verdicts", g, len(resp.Results))
			}
			n := 0
			for _, r := range resp.Results {
				if r.Admitted {
					n++
				}
			}
			mu.Lock()
			admitted += n
			mu.Unlock()
		}()
	}
	wg.Wait()

	commit, err := sess.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if commit.Committed != admitted {
		t.Errorf("admitted %d but committed %d", admitted, commit.Committed)
	}
	if commit.Utilization > 1.0000001 {
		t.Errorf("utilization %v exceeds 1", commit.Utilization)
	}
	if admitted == 0 {
		t.Error("no proposal admitted at all")
	}
}

// TestSessionTTLSweep covers the idle-TTL sweeper end to end: an idle
// session eventually 404s, a session kept busy survives, and the metrics
// page counts the expiry. Timing is one-sided (a generous poll deadline,
// frequent keep-alive touches) so the test cannot flake on a slow
// machine; only an extreme scheduler stall (most of a second) could make
// the busy session expire spuriously.
func TestSessionTTLSweep(t *testing.T) {
	const ttl = time.Second
	srv := service.New(service.Config{SessionTTL: ttl})
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	c := client.New(hs.URL, hs.Client())
	ctx := context.Background()

	idle, _, err := c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}
	busy, _, err := c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		t.Fatal(err)
	}

	// Touch the busy session every ttl/10 while waiting for the idle one
	// to be swept. The idle session is probed at most every 1.5·ttl so a
	// failed probe (which refreshes its clock) always leaves room for the
	// next sweep to catch it fully idle.
	deadline := time.Now().Add(15 * time.Second)
	lastIdleProbe := time.Time{}
	for {
		if _, _, err := busy.State(ctx); err != nil {
			t.Fatalf("touched session died: %v", err)
		}
		if time.Since(lastIdleProbe) > 3*ttl/2 {
			lastIdleProbe = time.Now()
			_, _, err := idle.State(ctx)
			var ce *client.Error
			if asClientError(err, &ce) && ce.StatusCode == 404 {
				break // swept
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("idle session never expired")
		}
		time.Sleep(ttl / 10)
	}

	page, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !metricPositive(page, "edfd_sessions_expired") {
		t.Errorf("metrics missing a positive sessions_expired:\n%s", page)
	}
	if !metricPositive(page, "edfd_sessions_active") {
		t.Errorf("busy session not counted active:\n%s", page)
	}
}

// metricPositive reports whether the metrics page carries a positive
// value for name.
func metricPositive(page, name string) bool {
	for _, line := range strings.Split(page, "\n") {
		var v int
		if n, _ := fmt.Sscanf(strings.TrimSpace(line), name+" %d", &v); n == 1 && v > 0 {
			return true
		}
	}
	return false
}
