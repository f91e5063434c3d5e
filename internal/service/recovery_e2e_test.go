// Recovery end-to-end coverage: a store-backed server is restarted (or a
// peer rehydrates its sessions) and must resume committed admission state
// with bit-identical verdicts, driven only through the typed client.
package service_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	edf "repro"
	"repro/internal/eventstream"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/store"
)

// recoveryStream generates a deterministic proposal stream mixing
// admissible tasks (drawn from feasible sets) with overload tasks that
// the session must reject, so a replayed session is exercised on both
// verdicts.
func recoveryStream(t *testing.T, seed int64, n int) []service.WorkloadTask {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var stream []service.WorkloadTask
	for len(stream) < n {
		ts, err := edf.Generate(edf.GenConfig{
			N:           4 + rng.Intn(6),
			Utilization: 0.25 + rng.Float64()*0.2,
			PeriodMin:   100, PeriodMax: 10000,
			GapMean: 0.2,
		}, rng)
		if err != nil {
			continue
		}
		for _, tk := range ts {
			stream = append(stream, service.SporadicTask(tk))
		}
		// One hog per generated set: as committed utilization grows these
		// flip from admitted to rejected, covering both paths.
		p := int64(100 + rng.Intn(1000))
		stream = append(stream, service.SporadicTask(edf.Task{
			WCET: p / 2, Deadline: p, Period: p,
		}))
	}
	return stream[:n]
}

// proposeJSON proposes one task and returns the decision-relevant
// projection of the response marshaled to JSON — the form compared
// bit-for-bit between a restarted session and its uninterrupted oracle.
// Effort metadata (path, escalated, iterations) is deliberately outside
// the projection: the recovered certificate anchor is a fresh Rebuild
// over the committed set while the oracle's evolved by per-admit folds,
// so which fast path fires may differ — but both are sound and escalate
// to the same exact analyzer, so the verdict, the utilization bits and
// the counts cannot.
func proposeJSON(t *testing.T, ctx context.Context, s *client.Session, tk service.WorkloadTask) string {
	t.Helper()
	resp, err := s.Propose(ctx, service.ProposeRequest{Task: tk})
	if err != nil {
		t.Fatalf("propose: %v", err)
	}
	b, err := json.Marshal(struct {
		Admitted    bool    `json:"admitted"`
		Verdict     string  `json:"verdict"`
		Utilization float64 `json:"utilization"`
		Committed   int     `json:"committed"`
		Pending     int     `json:"pending"`
	}{resp.Admitted, resp.Result.Verdict, resp.Utilization, resp.Committed, resp.Pending})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// openStore opens a DiskStore on dir without fsync, closed when the test
// ends; node names its segment as edfd's -store-node does, so two nodes
// on one dir are a replica and its takeover peer.
func openStore(t *testing.T, dir, node string) *store.DiskStore {
	t.Helper()
	st, err := store.Open(dir, node, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestE2ERecoveryDiskRestart drives the full restart story through HTTP
// and a real disk store: committed sessions resume, pending proposals are
// dropped, closed sessions stay closed.
func TestE2ERecoveryDiskRestart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, "edfd-a", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, c := newTestServer(t, service.Config{Store: st})
	ctx := context.Background()

	sess, _, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 10, Deadline: 90, Period: 100}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range []edf.Task{
		{Name: "a", WCET: 20, Deadline: 150, Period: 200},
		{Name: "b", WCET: 5, Deadline: 40, Period: 50},
	} {
		if resp, err := sess.Propose(ctx, service.ProposeRequest{Task: service.SporadicTask(tk)}); err != nil || !resp.Admitted {
			t.Fatalf("propose %s: %+v, %v", tk.Name, resp, err)
		}
	}
	if _, err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	// One pending (uncommitted) proposal: the restart must drop it.
	if resp, err := sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "pend", WCET: 1, Deadline: 100, Period: 100}),
	}); err != nil || !resp.Admitted {
		t.Fatalf("pending propose: %+v, %v", resp, err)
	}
	closed, _, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "x", WCET: 1, Deadline: 50, Period: 50}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := closed.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// "Crash": stop the process's view of the store, then restart a fresh
	// server over the same directory.
	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, "edfd-a", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	_, c2 := newTestServer(t, service.Config{Store: st2})

	state, _, err := c2.Session(sess.ID).State(ctx)
	if err != nil {
		t.Fatalf("resumed session: %v", err)
	}
	if state.Committed != 3 || state.Pending != 0 {
		t.Fatalf("resumed state: %+v, want committed=3 pending=0", state)
	}
	var ce *client.Error
	if _, _, err := c2.Session(closed.ID).State(ctx); !asClientError(err, &ce) || ce.StatusCode != 404 {
		t.Fatalf("closed session after restart: %v, want 404", err)
	}
	// The resumed session keeps working: further proposals commit.
	if resp, err := c2.Session(sess.ID).Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "post", WCET: 1, Deadline: 200, Period: 200}),
	}); err != nil || !resp.Admitted || resp.Committed != 3 {
		t.Fatalf("post-restart propose: %+v, %v", resp, err)
	}
}

// TestE2ERestartVerdictsBitIdentical is the property test pinning the
// acceptance criterion: a session journaled, crashed mid-pending and
// replayed answers the remaining proposal stream with responses that are
// byte-identical to an uninterrupted oracle session (whose pending batch
// was rolled back, mirroring the crash dropping it).
func TestE2ERestartVerdictsBitIdentical(t *testing.T) {
	ctx := context.Background()
	for trial := range 5 {
		stream := recoveryStream(t, int64(1000+trial), 22)
		commitN, pendN := 6+trial, 3

		st := openStore(t, t.TempDir(), "edfd-a")
		srv1, c1 := newTestServer(t, service.Config{Store: st})
		osrv, oc := newTestServer(t, service.Config{})

		open := func(c *client.Client) *client.Session {
			s, _, err := c.OpenSession(ctx, service.SessionRequest{
				Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 5, Deadline: 400, Period: 500}}),
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		live, oracle := open(c1), open(oc)

		// Identical prefix on both: commitN proposals then a commit, then
		// pendN proposals left pending.
		for _, s := range []*client.Session{live, oracle} {
			for _, tk := range stream[:commitN] {
				proposeJSON(t, ctx, s, tk)
			}
			if _, err := s.Commit(ctx); err != nil {
				t.Fatal(err)
			}
			for _, tk := range stream[commitN : commitN+pendN] {
				proposeJSON(t, ctx, s, tk)
			}
		}

		// Crash the journaled server; roll the oracle's pending back by
		// hand — that is exactly what replay does to uncommitted state.
		srv1.Close()
		_, c2 := newTestServer(t, service.Config{Store: st})
		if _, err := oracle.Rollback(ctx); err != nil {
			t.Fatal(err)
		}

		resumed := c2.Session(live.ID)
		for i, tk := range stream[commitN+pendN:] {
			got := proposeJSON(t, ctx, resumed, tk)
			want := proposeJSON(t, ctx, oracle, tk)
			if got != want {
				t.Fatalf("trial %d proposal %d diverged after restart:\n got  %s\n want %s", trial, i, got, want)
			}
		}
		gc, err := resumed.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wc, err := oracle.Commit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if gc != wc {
			t.Fatalf("trial %d final commit diverged: %+v vs %+v", trial, gc, wc)
		}
		osrv.Close()
	}
}

// TestE2ERehydrateOnMiss is the takeover building block: a second server
// sharing the store directory serves a session it has never seen by
// rehydrating it on the miss path.
func TestE2ERehydrateOnMiss(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	_, c1 := newTestServer(t, service.Config{Store: openStore(t, dir, "edfd-a")})
	// The peer exists before the session does, so startup replay cannot
	// have carried it over — only lazy rehydration can.
	_, c2 := newTestServer(t, service.Config{Store: openStore(t, dir, "edfd-b")})

	sess, _, err := c1.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 10, Deadline: 90, Period: 100}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "a", WCET: 5, Deadline: 40, Period: 50}),
	}); err != nil || !resp.Admitted {
		t.Fatalf("propose: %+v, %v", resp, err)
	}
	if _, err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	state, _, err := c2.Session(sess.ID).State(ctx)
	if err != nil {
		t.Fatalf("peer rehydration: %v", err)
	}
	if state.Committed != 2 || state.Pending != 0 {
		t.Fatalf("rehydrated state: %+v, want committed=2 pending=0", state)
	}
	if resp, err := c2.Session(sess.ID).Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "b", WCET: 1, Deadline: 200, Period: 200}),
	}); err != nil || !resp.Admitted {
		t.Fatalf("propose on peer: %+v, %v", resp, err)
	}
	// A bogus id still 404s — rehydration must not invent sessions.
	var ce *client.Error
	if _, _, err := c2.Session("s_nonexistent").State(ctx); !asClientError(err, &ce) || ce.StatusCode != 404 {
		t.Fatalf("unknown session: %v, want 404", err)
	}
}

// unwrittenAdmits stands in for an owner that has stamped its admit
// records but not yet written them: it stamps them on a private store,
// so they never reach the shared directory, and journals every other
// record and snapshot there.
type unwrittenAdmits struct {
	store.Store
	private store.Store
}

func (u *unwrittenAdmits) Submit(recs ...store.Record) (uint64, error) {
	if recs[0].Type == store.TypeAdmit {
		return u.private.Submit(recs...)
	}
	return u.Store.Submit(recs...)
}

// TestTakeoverClearsOwnersLateAdmits is the live-owner takeover race: the
// proxy moves a session to a peer while its owner is still alive with an
// uncommitted admit that reaches the shared directory only after the
// peer's commit (here through the owner's final snapshot). Replay orders
// records by seq, and that admit's seq is below the peer's commit, so
// the peer's rehydration must journal a rollback even though it saw no
// pending task; otherwise any later replay folds the admit into a commit
// that never verified it.
func TestTakeoverClearsOwnersLateAdmits(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	owner, oc := newTestServer(t, service.Config{Store: &unwrittenAdmits{
		Store:   openStore(t, dir, "edfd-a"),
		private: openStore(t, t.TempDir(), "edfd-a"),
	}})
	_, peer := newTestServer(t, service.Config{Store: openStore(t, dir, "edfd-b")})

	sess, _, err := oc.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 10, Deadline: 90, Period: 100}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "late", WCET: 5, Deadline: 40, Period: 50}),
	}); err != nil || !resp.Admitted {
		t.Fatalf("propose on the owner: %+v, %v", resp, err)
	}
	if _, err := peer.Session(sess.ID).Commit(ctx); err != nil {
		t.Fatalf("commit on the peer: %v", err)
	}
	owner.Close()

	_, third := newTestServer(t, service.Config{Store: openStore(t, dir, "edfd-c")})
	state, _, err := third.Session(sess.ID).State(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if state.Committed != 1 || state.Pending != 0 {
		t.Fatalf("replayed state: %+v, want committed=1 pending=0 (the owner's uncommitted admit was folded into the peer's commit)", state)
	}
}

// TestCloseWritesFinalSnapshot pins the shutdown ordering: Close must
// not return before the snapshotter's final compacting snapshot has
// been written, because callers (edfd main, the cluster spawner) close
// the store immediately after Close.
func TestCloseWritesFinalSnapshot(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir(), "edfd-a")
	// An hour-long interval guarantees the only snapshot is the
	// shutdown one.
	srv, c := newTestServer(t, service.Config{Store: st, SnapshotInterval: time.Hour})
	sess, _, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 1, Deadline: 50, Period: 50}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := sess.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "a", WCET: 1, Deadline: 40, Period: 40}),
	}); err != nil || !resp.Admitted {
		t.Fatalf("propose: %+v, %v", resp, err)
	}
	if _, err := sess.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if st.Stats().Snapshots == 0 {
		t.Fatal("Close returned before the final snapshot was written")
	}
}

// countingStore counts single-session store lookups, the expensive
// full-directory replays behind the rehydrate miss path.
type countingStore struct {
	store.Store
	loads atomic.Int64
}

func (c *countingStore) LoadSession(id string) (*store.SessionState, error) {
	c.loads.Add(1)
	return c.Store.LoadSession(id)
}

// TestRepeatedMissesSkipReplay pins the negative rehydrate cache: a
// bogus session id costs one store replay, not one per request —
// without it, unauthenticated 404 traffic is a resource-exhaustion
// vector (every miss replays every segment in the directory).
func TestRepeatedMissesSkipReplay(t *testing.T) {
	ctx := context.Background()
	cs := &countingStore{Store: openStore(t, t.TempDir(), "edfd-a")}
	_, c := newTestServer(t, service.Config{Store: cs})
	for i := range 5 {
		var ce *client.Error
		if _, _, err := c.Session("s_bogus").State(ctx); !asClientError(err, &ce) || ce.StatusCode != 404 {
			t.Fatalf("request %d for a bogus id: %v, want 404", i, err)
		}
	}
	if n := cs.loads.Load(); n != 1 {
		t.Fatalf("store lookups for a repeated bogus id = %d, want 1 (negative cache)", n)
	}
}

// TestE2EExpiredSessionsStayDead pins the TTL/durability interaction: the
// sweeper journals expire records, so neither a restart nor a peer can
// resurrect a session the TTL already removed.
func TestE2EExpiredSessionsStayDead(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	st := openStore(t, dir, "edfd-a")
	srv1, c1 := newTestServer(t, service.Config{Store: st, SessionTTL: 25 * time.Millisecond})

	sess, _, err := c1.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 1, Deadline: 50, Period: 50}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Leave the session idle past its TTL and watch the store, not the
	// session: the expire record must reach the log after the open with
	// no request to carry it.
	deadline := time.Now().Add(10 * time.Second)
	for st.Stats().Records < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the sweeper's expire record never reached the log")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var ce *client.Error
	if _, _, err := sess.State(ctx); !asClientError(err, &ce) || ce.StatusCode != 404 {
		t.Fatalf("expired session: %v, want 404", err)
	}
	srv1.Close()

	// A peer reading the directory, and a restart over the same store,
	// must not resurrect it, on the startup path or the lazy
	// rehydration path.
	_, peer := newTestServer(t, service.Config{Store: openStore(t, dir, "edfd-b")})
	_, c2 := newTestServer(t, service.Config{Store: st})
	for name, c := range map[string]*client.Client{"peer": peer, "restart": c2} {
		if _, _, err := c.Session(sess.ID).State(ctx); !asClientError(err, &ce) || ce.StatusCode != 404 {
			t.Fatalf("expired session on the %s: %v, want 404", name, err)
		}
	}
}

// taskNames decodes task payloads and returns their names in order.
func taskNames(t *testing.T, raws []json.RawMessage) []string {
	t.Helper()
	var names []string
	for _, raw := range raws {
		var tk struct{ Name string }
		if err := json.Unmarshal(raw, &tk); err != nil {
			t.Fatalf("task payload %s: %v", raw, err)
		}
		names = append(names, tk.Name)
	}
	return names
}

// configTaskNames returns the names of a session config's seed tasks.
func configTaskNames(t *testing.T, cfg json.RawMessage) []string {
	t.Helper()
	var c struct{ Tasks []json.RawMessage }
	if err := json.Unmarshal(cfg, &c); err != nil {
		t.Fatalf("config %s: %v", cfg, err)
	}
	return taskNames(t, c.Tasks)
}

// TestOldStoreDirReplays: testdata/store_v1 was written before replay
// kept committed payloads apart from the config, when each commit was
// folded into the config's task array. Its snapshot holds the open
// config with three committed admits and one pending one (p0); the log
// after it holds two more admits, a commit and one last admit (p1).
// Replay gives the same committed and pending tasks, and a server over
// the directory resumes the session with all eight committed tasks in
// admission order.
func TestOldStoreDirReplays(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "store_v1")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const id = "50edfb8d4b10fa3a2ef9f84acbe82d5a"
	wantCommitted := []string{"seed0", "seed1", "a0", "a1", "a2", "p0", "a3", "a4"}

	st := openStore(t, dir, "edfd-b")
	states, _, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	ss := states[id]
	if len(states) != 1 || ss == nil {
		t.Fatalf("replayed sessions = %v, want only %s", states, id)
	}
	committed := append(configTaskNames(t, ss.Config), taskNames(t, ss.Committed)...)
	if fmt.Sprint(committed) != fmt.Sprint(wantCommitted) {
		t.Fatalf("committed = %v, want %v", committed, wantCommitted)
	}
	if pending := taskNames(t, ss.Pending); fmt.Sprint(pending) != "[p1]" {
		t.Fatalf("pending = %v, want [p1]", pending)
	}

	srv, c := newTestServer(t, service.Config{Store: st, SnapshotInterval: time.Hour})
	state, _, err := c.Session(id).State(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if state.Committed != len(wantCommitted) || state.Pending != 0 {
		t.Fatalf("resumed state: %+v, want committed=%d pending=0", state, len(wantCommitted))
	}
	// The shutdown snapshot captures the resumed committed set in order.
	srv.Close()
	data, err := os.ReadFile(filepath.Join(dir, "snap-edfd-b.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap store.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Sessions) != 1 {
		t.Fatalf("shutdown snapshot holds %d sessions, want 1", len(snap.Sessions))
	}
	img := snap.Sessions[0]
	if got := append(configTaskNames(t, img.Config), taskNames(t, img.Committed)...); fmt.Sprint(got) != fmt.Sprint(wantCommitted) {
		t.Fatalf("resumed committed set = %v, want %v", got, wantCommitted)
	}
}

// TestDamagedSessionSkipped: sessions whose durable state cannot be
// rebuilt — an open config that is CRC-valid JSON but not an object, a
// null config, a committed payload that is not a task of the session's
// model, a partitioned seed, which no session takes — fail alone. Load replays the directory, and both restart
// recovery and a peer's rehydration resume the intact session and
// answer 404 for each damaged one.
func TestDamagedSessionSkipped(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// The peer boots before the sessions exist, so only rehydration can
	// bring them in.
	_, peer := newTestServer(t, service.Config{Store: openStore(t, dir, "edfd-b")})

	seedCfg, err := service.SessionRequest{Workload: edf.SporadicWorkload(edf.TaskSet{
		{Name: "seed", WCET: 10, Deadline: 90, Period: 100},
	})}.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	sporadic, _ := service.SporadicTask(edf.Task{Name: "a", WCET: 5, Deadline: 40, Period: 50}).MarshalJSON()
	event, _ := service.EventTask(eventstream.Task{Name: "e", WCET: 1, Deadline: 40,
		Stream: eventstream.Periodic(50)}).MarshalJSON()
	st := openStore(t, dir, "edfd-a")
	journal := func(id string, cfg json.RawMessage, admits ...json.RawMessage) {
		t.Helper()
		if _, err := st.Append(store.Record{Type: store.TypeOpen, Session: id, Config: cfg}); err != nil {
			t.Fatal(err)
		}
		for _, admit := range admits {
			if _, err := st.Submit(store.Record{Type: store.TypeAdmit, Session: id, Task: admit}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := st.Append(store.Record{Type: store.TypeCommit, Session: id}); err != nil {
			t.Fatal(err)
		}
	}
	journal("s_good", seedCfg, sporadic)
	journal("s_array", json.RawMessage(`[1,2]`), sporadic)
	journal("s_null", json.RawMessage(`null`), sporadic)
	journal("s_model", seedCfg, event)
	journal("s_part", json.RawMessage(`{"model":"partitioned","processors":[{"speed":1}],`+
		`"tasks":[{"wcet":1,"deadline":10,"period":10,"affinity":[0]}]}`))

	states, _, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(states) != 5 {
		t.Fatalf("Load replayed %d sessions, want 5", len(states))
	}
	_, restart := newTestServer(t, service.Config{Store: openStore(t, dir, "edfd-c")})
	for name, c := range map[string]*client.Client{"restart": restart, "peer": peer} {
		state, _, err := c.Session("s_good").State(ctx)
		if err != nil {
			t.Fatalf("intact session on the %s: %v", name, err)
		}
		if state.Committed != 2 || state.Pending != 0 {
			t.Fatalf("intact session on the %s: %+v, want committed=2 pending=0", name, state)
		}
		for _, id := range []string{"s_array", "s_null", "s_model", "s_part"} {
			var ce *client.Error
			if _, _, err := c.Session(id).State(ctx); !asClientError(err, &ce) || ce.StatusCode != 404 {
				t.Fatalf("damaged session %s on the %s: %v, want 404", id, name, err)
			}
		}
	}
}
