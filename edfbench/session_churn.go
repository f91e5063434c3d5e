package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/churn"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/store"
)

// sessionChurn drives admission sessions on one edfd with a durable
// store: each client takes the next seeded churn scenario, opens a session
// with its 100-task committed seed, sends one op per request and closes
// the session. It is the only workload that reaches the incremental
// admission paths and the write-ahead log.
type sessionChurn struct {
	scen, warmScen []churn.Scenario
	off            []int // first request index of each scenario
	truth          [][]churnAnswer
	ans            []churnAnswer // per request
}

// churnAnswer is what one session request decided.
type churnAnswer struct {
	admitted  bool
	verdict   string
	path      string
	committed int
	moved     int
}

// Scenario shape. The op count is a bounded traffic property because a
// session grows with every commit and every full analysis grows with it:
// the oracle's cascade costs ~2.4 ms per proposal over 100-op scenarios,
// ~6 ms over 200 ops and ~25 ms over 400, and one 2000-op scenario drives
// a session to ~600 committed tasks at U≈0.99 where a single escalation
// takes seconds. That near-saturation regime deserves a workload of its
// own; 100 ops keeps every session in the regime the incremental fast
// path serves and keeps the oracle within the run's time budget.
const (
	churnSeedTasks = 100
	churnOps       = 100
	warmScenarios  = 10
)

func scenarios(seed int64, stream int64, n int, prefix string) []churn.Scenario {
	rng := rngFor(seed, stream)
	out := make([]churn.Scenario, n)
	for i := range out {
		sc, err := churn.Generate(prefix+strconv.Itoa(i), churn.Config{SeedTasks: churnSeedTasks, Ops: churnOps}, rng)
		if err != nil {
			panic(err) // the configuration is a valid constant
		}
		out[i] = sc
	}
	return out
}

func (w *sessionChurn) generate(seed int64, ops int) {
	n := max(1, (ops+churnOps/2)/(churnOps+2))
	w.scen = scenarios(seed, streamTimed, n, "s")
	w.warmScen = scenarios(warmCorpusSeed, streamWarm, warmScenarios, "w")
	w.off = make([]int, n+1)
	for i, sc := range w.scen {
		w.off[i+1] = w.off[i] + len(sc.Ops) + 2
	}
	w.truth = nil
}

// boot starts one edfd journaling every session decision to a DiskStore
// in the run's directory. The store skips fsync: on a VM's shared
// virtual disk fsync latency swung this workload's p90 by 25% and its
// throughput by 36% across seeds, a cost of the disk rather than of the
// program. Every open, decision, commit, rollback and close still goes
// through the write-ahead log's encoding, framing, group-commit batcher
// and write.
func (w *sessionChurn) boot(dir string) (*fleet, error) {
	st, err := store.Open(dir, "edfd-0", store.Options{NoSync: true})
	if err != nil {
		return nil, err
	}
	f, err := bootEdfd(1, st)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	return f, nil
}

func (w *sessionChurn) warm(ctx context.Context, _ *fleet, cs []*client.Client) error {
	return warmLoop(cs, len(w.warmScen), func(c *client.Client, j int) error {
		return replayScenario(ctx, c, w.warmScen[j])
	})
}

func (w *sessionChurn) jobs() int              { return len(w.scen) }
func (w *sessionChurn) requests() int          { return w.off[len(w.scen)] }
func (w *sessionChurn) firstRequest(j int) int { return w.off[j] }
func (w *sessionChurn) begin()                 { w.ans = make([]churnAnswer, w.requests()) }

// replayScenario runs one scenario over the wire without timing, for the
// warm-up.
func replayScenario(ctx context.Context, c *client.Client, sc churn.Scenario) error {
	sess, _, err := c.OpenSession(ctx, service.SessionRequest{Workload: sc.Seed})
	if err != nil {
		return err
	}
	for _, op := range sc.Ops {
		switch op.Op {
		case churn.OpPropose:
			_, err = sess.Propose(ctx, service.ProposeRequest{Task: *op.Task})
		case churn.OpCommit:
			_, err = sess.Commit(ctx)
		case churn.OpRollback:
			_, err = sess.Rollback(ctx)
		}
		if err != nil {
			return err
		}
	}
	return sess.Close(ctx)
}

func (w *sessionChurn) do(ctx context.Context, c *caller, j int) {
	sc, r := w.scen[j], w.off[j]
	var sess *client.Session
	c.call(ctx, r, "open", func(ctx context.Context) error {
		s, resp, err := c.c.OpenSession(ctx, service.SessionRequest{Workload: sc.Seed})
		sess, w.ans[r].committed = s, resp.Committed
		return err
	})
	if sess == nil {
		c.skip(r+1, w.off[j+1], fmt.Errorf("scenario %s: session never opened", sc.Name))
		return
	}
	for k, op := range sc.Ops {
		req := r + 1 + k
		a := &w.ans[req]
		switch op.Op {
		case churn.OpPropose:
			c.call(ctx, req, "propose", func(ctx context.Context) error {
				resp, _, err := sess.ProposeRouted(ctx, service.ProposeRequest{Task: *op.Task})
				a.admitted, a.verdict, a.path, a.committed = resp.Admitted, resp.Result.Verdict, resp.Path, resp.Committed
				return err
			})
		case churn.OpCommit:
			c.call(ctx, req, "commit", func(ctx context.Context) error {
				resp, err := sess.Commit(ctx)
				a.moved, a.committed = resp.Moved, resp.Committed
				return err
			})
		case churn.OpRollback:
			c.call(ctx, req, "rollback", func(ctx context.Context) error {
				resp, err := sess.Rollback(ctx)
				a.moved, a.committed = resp.Moved, resp.Committed
				return err
			})
		}
	}
	c.call(ctx, w.off[j+1]-1, "close", func(ctx context.Context) error { return sess.Close(ctx) })
}

// oracle replays a scenario through an in-process admission controller
// with the incremental fast path disabled, so every proposal is decided
// by a full cascade run.
func oracle(sc churn.Scenario) []churnAnswer {
	out := make([]churnAnswer, len(sc.Ops)+2)
	adm, err := service.NewAdmission(service.AdmissionConfig{Seed: sc.Seed, NoIncremental: true})
	if err != nil {
		return nil
	}
	out[0].committed = sc.Seed.Len()
	for k, op := range sc.Ops {
		a := &out[k+1]
		switch op.Op {
		case churn.OpPropose:
			o, err := adm.ProposeTask(*op.Task)
			if err != nil {
				return nil
			}
			a.admitted, a.verdict, a.committed = o.Admitted, o.Result.Verdict.String(), o.Committed
		case churn.OpCommit:
			f := adm.Commit()
			a.moved, a.committed = f.Moved, f.Committed
		case churn.OpRollback:
			f := adm.Rollback()
			a.moved, a.committed = f.Moved, f.Committed
		}
	}
	return out
}

// check: every decision, commit and rollback must equal the full-analysis
// replay of its scenario.
func (w *sessionChurn) check(ph *phase) {
	if w.truth == nil {
		w.truth = make([][]churnAnswer, len(w.scen))
		runJobs(clients, 0, len(w.scen), func(_, j int) { w.truth[j] = oracle(w.scen[j]) })
	}
	for j, sc := range w.scen {
		for k := range len(sc.Ops) + 1 {
			r := w.off[j] + k
			if ph.failed[r] {
				continue
			}
			if w.truth[j] == nil {
				ph.fail(r, fmt.Errorf("scenario %s does not replay in-process", sc.Name))
				continue
			}
			got, want := w.ans[r], w.truth[j][k]
			got.path = ""
			if got != want {
				ph.fail(r, fmt.Errorf("scenario %s op %d: got %+v, full analysis says %+v", sc.Name, k, got, want))
			}
		}
	}
}

func (w *sessionChurn) counts(m metricSet, ph *phase, d map[string]float64) {
	paths := map[string]float64{}
	var proposals, commits float64
	var commitLat []int64
	for j, sc := range w.scen {
		for k, op := range sc.Ops {
			r := w.off[j] + 1 + k
			switch op.Op {
			case churn.OpPropose:
				proposals++
				paths[w.ans[r].path]++
			case churn.OpCommit:
				commits++
				commitLat = append(commitLat, ph.lat[r])
			}
		}
	}
	for _, p := range []string{obs.PathGate, obs.PathFast, obs.PathCascade} {
		m["incremental.path_share."+p] = ratio(paths[p], proposals)
	}
	m["store.flushes_per_commit"] = ratio(d["edfd_store_flushes_total"], commits)
	m["service.commit_p50_ms"] = float64(percentile(commitLat, 0.5)) / 1e6
}

// mirror replays the first scenarios through the admission controller's
// public functions with the incremental fast path on, as a session
// would: open (seed analysis), then each proposal, commit or rollback
// with its wire encode/decode and trace recording.
func (w *sessionChurn) mirror(_ context.Context, l *spanLog, t *coreTally) int {
	rec := obs.NewRecorder(0)
	mirrored := 0
	for _, sc := range w.scen[:min(len(w.scen), max(1, mirrorLimit/(churnOps+2)))] {
		op := l.begin(sc.Name + ".open")
		var body []byte
		op.step("client.encode", func() { body, _ = json.Marshal(service.SessionRequest{Workload: sc.Seed}) })
		var req service.SessionRequest
		op.step("workload.decode", func() { _ = json.Unmarshal(body, &req) })
		var adm *service.Admission
		op.step("service.open", func() { adm, _ = service.NewAdmission(service.AdmissionConfig{Seed: req.Workload}) })
		traceStep(op, rec, "open")
		codec(op, service.SessionResponse{ID: sc.Name, Committed: sc.Seed.Len()}, &service.SessionResponse{})
		op.end()
		mirrored++
		if adm == nil {
			continue
		}
		for k, o := range sc.Ops {
			op := l.begin(sc.Name + "." + strconv.Itoa(k))
			switch o.Op {
			case churn.OpPropose:
				var body []byte
				op.step("client.encode", func() { body, _ = json.Marshal(service.ProposeRequest{Task: *o.Task}) })
				var req service.ProposeRequest
				op.step("workload.decode", func() { _ = json.Unmarshal(body, &req) })
				op.step("workload.validate", func() { _ = req.Task.Validate() })
				t0 := time.Now().UnixNano()
				out, _ := adm.ProposeTask(req.Task)
				t1 := time.Now().UnixNano()
				id := l.add(op.id, op.trace, "incremental.propose."+out.Path, t0, t1)
				stageSpans(l, id, op.trace, &out.Stages, t1)
				t.record(&out.Stages)
				traceStep(op, rec, "propose")
				codec(op, service.ProposeResponse{Admitted: out.Admitted, Result: service.NewResultJSON(out.Result), Path: out.Path}, &service.ProposeResponse{})
			case churn.OpCommit, churn.OpRollback:
				var f service.FinishOutcome
				op.step("service."+o.Op, func() {
					if o.Op == churn.OpCommit {
						f = adm.Commit()
					} else {
						f = adm.Rollback()
					}
				})
				traceStep(op, rec, o.Op)
				codec(op, service.CommitResponse{Moved: f.Moved, Committed: f.Committed}, &service.CommitResponse{})
			}
			op.end()
			mirrored++
		}
		mirrored++ // the close request, which only journals
	}
	return mirrored
}
