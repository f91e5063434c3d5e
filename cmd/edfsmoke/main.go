// Command edfsmoke is the end-to-end smoke test behind `make smoke` and
// `make smoke-cluster`: it builds and starts real daemons on ephemeral
// ports, drives analyze, batch, session propose-batch and partitioned
// placement with every workload model through the typed client, and
// exits non-zero on any
// non-2xx response or contract violation (missed cache hit, colliding
// fingerprints, wrong verdict count, non-deterministic batch order).
//
// Usage:
//
//	edfsmoke [-cluster n] [-edfd path] [-edfproxy path] [-timeout 120s]
//
// With -cluster n > 0 it boots n edfd replicas behind a real edfproxy
// and drives the whole suite through the proxy, plus cluster-specific
// checks: repeated workloads route to the same replica and hit its
// cache, split batches re-merge deterministically, and the aggregate
// /metrics page carries both proxy and fleet counters.
//
// Every daemon journals to a shared -store-dir, and the suite ends with
// the durability phase: single mode kill -9s the edfd mid-session and
// requires a restart on the same directory to resume the committed
// admission state; cluster mode kills a session owner and requires the
// proxy to drain every live session through a takeover peer with no
// client-visible error. On failure the store directory listing and each
// log tail are dumped alongside the daemon stderr.
//
// Without -edfd/-edfproxy the daemons are compiled from ./cmd into a
// temp dir, so `go run ./cmd/edfsmoke` works from a clean checkout.
// Every daemon's stderr is captured; when startup or any request fails,
// the captured output is printed so CI failures are diagnosable from
// the log alone.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	edf "repro"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

func main() {
	var (
		edfdPath  = flag.String("edfd", "", "edfd binary to drive (default: build ./cmd/edfd)")
		proxyPath = flag.String("edfproxy", "", "edfproxy binary to drive (default: build ./cmd/edfproxy)")
		clusterN  = flag.Int("cluster", 0, "boot n edfd replicas behind an edfproxy and smoke through the proxy (0 = single edfd)")
		timeout   = flag.Duration("timeout", 120*time.Second, "overall smoke deadline")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	daemons := &harness.Fleet{Tool: "edfsmoke"}
	err := run(ctx, daemons, *edfdPath, *proxyPath, *clusterN)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edfsmoke: FAIL:", err)
		// Snapshot /metrics while the daemons are still alive, then kill
		// them and dump their stderr: counters plus logs make a CI failure
		// diagnosable without a rerun.
		dumpMetrics(os.Stderr, daemons)
		daemons.StopAll()
		daemons.DumpStderr(os.Stderr)
		os.Exit(1)
	}
	daemons.StopAll()
	fmt.Println("edfsmoke: PASS")
}

// dumpMetrics captures a final /metrics snapshot from every daemon that
// is still answering — the counter state at the moment of failure often
// pinpoints which daemon absorbed the work that went missing.
func dumpMetrics(w io.Writer, f *harness.Fleet) {
	hc := &http.Client{Timeout: 2 * time.Second}
	for _, d := range f.Daemons {
		resp, err := hc.Get(d.URL() + "/metrics")
		if err != nil {
			fmt.Fprintf(w, "edfsmoke: %s (%s): metrics unavailable: %v\n", d.Name, d.Addr, err)
			continue
		}
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
		fmt.Fprintf(w, "edfsmoke: --- %s (%s) /metrics ---\n%s\nedfsmoke: --- end %s /metrics ---\n",
			d.Name, d.Addr, strings.TrimSpace(string(b)), d.Name)
	}
}

func run(ctx context.Context, daemons *harness.Fleet, edfdPath, proxyPath string, clusterN int) error {
	if edfdPath == "" || (clusterN > 0 && proxyPath == "") {
		dir, err := os.MkdirTemp("", "edfsmoke")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if edfdPath == "" {
			if edfdPath, err = harness.BuildTool(ctx, dir, "edfd"); err != nil {
				return err
			}
		}
		if clusterN > 0 && proxyPath == "" {
			if proxyPath, err = harness.BuildTool(ctx, dir, "edfproxy"); err != nil {
				return err
			}
		}
	}

	// Every daemon journals into one shared store directory, so the
	// whole suite runs with durability on, and the recovery/takeover
	// phases at the end have state to replay.
	storeDir, err := os.MkdirTemp("", "edfsmoke-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)

	if clusterN <= 0 {
		d, err := daemons.Start(ctx, "edfd", edfdPath, "-addr", "127.0.0.1:0", "-session-ttl", "10m",
			"-store-dir", storeDir, "-store-node", "edfd-smoke")
		if err != nil {
			return err
		}
		c := client.New(d.URL(), nil)
		if err := harness.WaitHealthy(ctx, c); err != nil {
			return err
		}
		fmt.Println("edfsmoke: edfd healthy on", d.Addr)
		if err := drive(ctx, c, d.URL()); err != nil {
			return err
		}
		if err := driveFeed(ctx, c, false); err != nil {
			return err
		}
		if err := driveRecovery(ctx, daemons, edfdPath, storeDir, d); err != nil {
			dumpStore(os.Stderr, storeDir)
			return err
		}
		return nil
	}

	// Cluster mode: n real replicas behind a real proxy, each journaling
	// to its own segment of the shared directory.
	var replicas []string
	for i := range clusterN {
		d, err := daemons.Start(ctx, "edfd", edfdPath, "-addr", "127.0.0.1:0", "-session-ttl", "10m",
			"-store-dir", storeDir, "-store-node", fmt.Sprintf("edfd-%d", i))
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		replicas = append(replicas, d.URL())
	}
	proxy, err := daemons.Start(ctx, "edfproxy", proxyPath,
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(replicas, ","), "-health-interval", "250ms")
	if err != nil {
		return err
	}
	c := client.New(proxy.URL(), nil)
	if err := harness.WaitHealthy(ctx, c); err != nil {
		return err
	}
	fmt.Printf("edfsmoke: edfproxy healthy on %s over %d replicas\n", proxy.Addr, clusterN)

	// The full single-daemon suite must behave identically via the proxy.
	if err := drive(ctx, c, proxy.URL()); err != nil {
		return err
	}
	if err := driveCluster(ctx, c, clusterN); err != nil {
		return err
	}
	if err := driveFeed(ctx, c, true); err != nil {
		return err
	}
	if err := driveTakeover(ctx, daemons, c); err != nil {
		dumpStore(os.Stderr, storeDir)
		return err
	}
	return nil
}

// drive runs the protocol suite — analyze with cache/fingerprint checks,
// batch, sessions with propose-batch, both workload models — against one
// endpoint, which may be an edfd or an edfproxy (the contract is the
// same; that is the point of the typed client). base is the endpoint's
// URL, for the one check that reads a raw reply.
func drive(ctx context.Context, c *client.Client, base string) error {
	sporadic := edf.TaskSet{
		{Name: "ctrl", WCET: 2, Deadline: 8, Period: 10},
		{Name: "io", WCET: 3, Deadline: 15, Period: 15},
	}
	events := []edf.EventTask{
		{Name: "periodic", WCET: 2, Deadline: 9, Stream: edf.PeriodicStream(10)},
		{Name: "burst", WCET: 1, Deadline: 24, Stream: edf.BurstStream(50, 3, 4)},
	}

	// Analyze: both models, then both again — the repeats must be cache
	// hits and the two fingerprints must live in different domains.
	fps := map[string]string{}
	for _, wl := range []struct {
		name string
		w    edf.Workload
	}{{"sporadic", edf.SporadicWorkload(sporadic)}, {"events", edf.EventWorkload(events)}} {
		first, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: wl.name, Workload: wl.w})
		if err != nil {
			return fmt.Errorf("analyze %s: %w", wl.name, err)
		}
		if first.Fingerprint == "" {
			return fmt.Errorf("analyze %s: no fingerprint", wl.name)
		}
		again, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: wl.name, Workload: wl.w})
		if err != nil {
			return fmt.Errorf("re-analyze %s: %w", wl.name, err)
		}
		if !again.Cached || again.Fingerprint != first.Fingerprint {
			return fmt.Errorf("re-analyze %s: cached=%v fingerprint %q vs %q",
				wl.name, again.Cached, again.Fingerprint, first.Fingerprint)
		}
		fps[wl.name] = first.Fingerprint
		fmt.Printf("edfsmoke: analyze %s: %s (cache hit on repeat)\n", wl.name, first.Result.Verdict)
	}
	if fps["sporadic"] == fps["events"] {
		return fmt.Errorf("sporadic and event workloads share fingerprint %s", fps["sporadic"])
	}

	// Batch: both models in one request.
	bresp, _, err := c.Batch(ctx, service.BatchRequest{
		Sets: []service.WorkloadSet{
			{Name: "s", Workload: edf.SporadicWorkload(sporadic)},
			{Name: "e", Workload: edf.EventWorkload(events)},
		},
		Analyzers: []string{"cascade"},
	})
	if err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if len(bresp.Results) != 2 {
		return fmt.Errorf("batch returned %d results, want 2", len(bresp.Results))
	}
	for _, jr := range bresp.Results {
		if jr.Err != "" {
			return fmt.Errorf("batch job %s/%s failed: %s", jr.SetName, jr.Analyzer, jr.Err)
		}
	}
	fmt.Println("edfsmoke: batch over both models ok")

	// Sessions: one per model, driven through propose-batch.
	for _, sess := range []struct {
		name  string
		seed  edf.Workload
		tasks []service.WorkloadTask
	}{
		{
			name: "sporadic",
			seed: edf.SporadicWorkload(sporadic),
			tasks: []service.WorkloadTask{
				service.SporadicTask(edf.Task{Name: "a", WCET: 1, Deadline: 50, Period: 100}),
				service.SporadicTask(edf.Task{Name: "b", WCET: 2, Deadline: 60, Period: 100}),
			},
		},
		{
			name: "events",
			seed: edf.EventWorkload(events),
			tasks: []service.WorkloadTask{
				service.EventTask(edf.EventTask{Name: "x", WCET: 1, Deadline: 40, Stream: edf.PeriodicStream(100)}),
				service.EventTask(edf.EventTask{Name: "y", WCET: 2, Deadline: 80, Stream: edf.PeriodicStream(200)}),
			},
		},
	} {
		h, state, err := c.OpenSession(ctx, service.SessionRequest{Workload: sess.seed})
		if err != nil {
			return fmt.Errorf("open %s session: %w", sess.name, err)
		}
		if state.Model != sess.name {
			return fmt.Errorf("%s session reports model %q", sess.name, state.Model)
		}
		presp, err := h.ProposeBatch(ctx, service.ProposeBatchRequest{Tasks: sess.tasks})
		if err != nil {
			return fmt.Errorf("%s propose-batch: %w", sess.name, err)
		}
		if len(presp.Results) != len(sess.tasks) {
			return fmt.Errorf("%s propose-batch: %d verdicts for %d tasks",
				sess.name, len(presp.Results), len(sess.tasks))
		}
		if _, err := h.Commit(ctx); err != nil {
			return fmt.Errorf("%s commit: %w", sess.name, err)
		}
		if err := h.Close(ctx); err != nil {
			return fmt.Errorf("%s close: %w", sess.name, err)
		}
		fmt.Printf("edfsmoke: %s session propose-batch ok (%d verdicts)\n",
			sess.name, len(presp.Results))
	}
	if err := driveChurn(ctx, c); err != nil {
		return err
	}
	if err := driveSpread(ctx, c); err != nil {
		return err
	}
	return drivePartition(ctx, c, base)
}

// drivePartition pushes a partitioned multiprocessor workload through
// POST /v1/partition — directly or via the proxy, which routes it by
// workload fingerprint — and checks the placement contract end to end:
// the schema advertises the model, a feasible placement carries one
// proven bin per processor, none with a fingerprint, and a trace whose
// span tree has one bin:pN span per processor under the placement span,
// an overloaded workload comes back infeasible with the heuristic
// rejection trail, and no placement adds a result cache entry.
func drivePartition(ctx context.Context, c *client.Client, base string) error {
	sr, err := c.Schema(ctx)
	if err != nil {
		return fmt.Errorf("partition: schema: %w", err)
	}
	if !strings.Contains(strings.Join(sr.Models, ","), "partitioned") {
		return fmt.Errorf("partition: schema models %v lack partitioned", sr.Models)
	}
	entries, err := cacheEntries(ctx, c)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}

	procs := []edf.Processor{{Name: "p0", Speed: 1}, {Name: "p1", Speed: 2}}
	req := service.PartitionRequest{
		Name: "smoke",
		Workload: edf.PartitionedWorkload(procs, []edf.PartitionedTask{
			{Task: edf.Task{Name: "a", WCET: 6, Deadline: 10, Period: 10}},
			{Task: edf.Task{Name: "b", WCET: 6, Deadline: 10, Period: 10}},
			{Task: edf.Task{Name: "pinned", WCET: 2, Deadline: 10, Period: 10}, Affinity: []int{0}},
		}),
	}
	resp, rt, err := c.Partition(ctx, req)
	if err != nil {
		return fmt.Errorf("partition: %w", err)
	}
	// The typed reply has no field a fingerprint could land in; the raw
	// bytes of the same placement show whether a bin carries one.
	body, err := service.EncodeJSON(req)
	if err != nil {
		return fmt.Errorf("partition: encoding: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/partition", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("partition: raw post: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hr, err := http.DefaultClient.Do(hreq)
	if err != nil {
		return fmt.Errorf("partition: raw post: %w", err)
	}
	raw, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusOK {
		return fmt.Errorf("partition: raw reply %d %s: %v", hr.StatusCode, raw, err)
	}
	var rawPl struct {
		Processors []map[string]json.RawMessage `json:"processors"`
	}
	if err := json.Unmarshal(raw, &rawPl); err != nil || len(rawPl.Processors) != len(procs) {
		return fmt.Errorf("partition: raw reply %s, want %d processors (%v)", raw, len(procs), err)
	}
	for j, bin := range rawPl.Processors {
		if _, ok := bin["fingerprint"]; ok {
			return fmt.Errorf("partition: processor %d carries a fingerprint: %s", j, raw)
		}
	}
	if !resp.Feasible || len(resp.Processors) != len(procs) {
		return fmt.Errorf("partition: placement not proven: %+v", resp.Placement)
	}
	for _, rep := range resp.Processors {
		if rep.Verdict != "feasible" {
			return fmt.Errorf("partition: processor %d verdict %q", rep.Index, rep.Verdict)
		}
	}
	if rt.TraceID == "" {
		return fmt.Errorf("partition: no trace id on the route")
	}
	tr, err := c.Trace(ctx, rt.TraceID)
	if err != nil {
		return fmt.Errorf("partition: trace %s unresolvable: %w", rt.TraceID, err)
	}
	bins, place := 0, false
	for _, sp := range tr.Spans {
		if strings.HasPrefix(sp.Name, "bin:p") {
			bins++
		}
		if sp.Name == "place" {
			place = true
		}
	}
	if !place || bins != len(resp.Processors) {
		return fmt.Errorf("partition: trace %s spans place=%v bins=%d, want the placement span and %d bins",
			rt.TraceID, place, bins, len(resp.Processors))
	}

	// Overload: four tasks of 0.7 utilization cannot share 1+2 capacity.
	over := make([]edf.PartitionedTask, 4)
	for i := range over {
		over[i] = edf.PartitionedTask{Task: edf.Task{
			Name: fmt.Sprintf("heavy-%d", i), WCET: 7, Deadline: 10, Period: 10,
		}}
	}
	oresp, _, err := c.Partition(ctx, service.PartitionRequest{
		Name:     "smoke-overload",
		Workload: edf.PartitionedWorkload(procs, over),
	})
	if err != nil {
		return fmt.Errorf("partition: overload: %w", err)
	}
	if oresp.Feasible || oresp.Counterexample == nil || len(oresp.Counterexample.Rejections) == 0 {
		return fmt.Errorf("partition: overload not refuted with a counterexample: %+v", oresp.Placement)
	}
	if after, err := cacheEntries(ctx, c); err != nil || after != entries {
		return fmt.Errorf("partition: placements moved edfd_cache_entries from %v to %v (%v)", entries, after, err)
	}
	fmt.Printf("edfsmoke: partition ok (%d bins proven and traced, overload refuted by %s after %d rejections)\n",
		bins, oresp.Counterexample.Heuristic, len(oresp.Counterexample.Rejections))
	return nil
}

// cacheEntries reads edfd_cache_entries from the metrics page: the
// unlabelled sample, which edfproxy's page sums over the fleet.
func cacheEntries(ctx context.Context, c *client.Client) (float64, error) {
	page, err := c.Metrics(ctx)
	if err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	samples, err := obs.ParseExposition(strings.NewReader(page))
	if err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	for _, s := range samples {
		if s.Name == "edfd_cache_entries" && len(s.Labels) == 0 {
			return s.Value, nil
		}
	}
	return 0, errors.New("metrics page lacks edfd_cache_entries")
}

// driveSpread pushes a log-uniform spread workload — the `edfgen -spread`
// shape whose period denominators stress the bounded-arithmetic fast
// path — through analyze and a full session propose/commit cycle, and
// requires conclusive verdicts end to end: a daemon that silently lost
// exact arithmetic on wide period ranges would surface here first.
func driveSpread(ctx context.Context, c *client.Client) error {
	ts, err := edf.Generate(edf.GenConfig{
		N: 24, Utilization: 0.9,
		PeriodMin: 1_000, PeriodMax: 10_000_000, // edfgen -tmin 1000 -spread 4
		LogUniformPeriods: true, GapMean: 0.2,
	}, newDeterministicRand())
	if err != nil {
		return fmt.Errorf("spread: generate: %w", err)
	}
	wl := edf.SporadicWorkload(ts)
	resp, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "spread", Workload: wl})
	if err != nil {
		return fmt.Errorf("spread: analyze: %w", err)
	}
	if v := resp.Result.Verdict; v != "feasible" && v != "infeasible" {
		return fmt.Errorf("spread: analyze verdict %q is not conclusive", v)
	}
	h, state, err := c.OpenSession(ctx, service.SessionRequest{Workload: wl})
	if err != nil {
		return fmt.Errorf("spread: open session: %w", err)
	}
	if state.Committed != len(ts) {
		return fmt.Errorf("spread: session opened with %d committed tasks, want %d", state.Committed, len(ts))
	}
	// Propose across the whole period range: the shortest and longest
	// decades share one demand walk inside the admission analyzer.
	admitted := 0
	for _, task := range []edf.Task{
		{Name: "spread-lo", WCET: 1, Deadline: 900, Period: 1_000},
		{Name: "spread-hi", WCET: 1000, Deadline: 9_000_000, Period: 10_000_000},
	} {
		pr, err := h.Propose(ctx, service.ProposeRequest{Task: service.SporadicTask(task)})
		if err != nil {
			return fmt.Errorf("spread: propose %s: %w", task.Name, err)
		}
		if pr.Admitted {
			admitted++
		}
	}
	if admitted == 0 {
		return fmt.Errorf("spread: no probe task admitted against a U=0.9 seed")
	}
	if _, err := h.Commit(ctx); err != nil {
		return fmt.Errorf("spread: commit: %w", err)
	}
	if err := h.Close(ctx); err != nil {
		return fmt.Errorf("spread: close: %w", err)
	}
	fmt.Printf("edfsmoke: spread workload ok (analyze %s, %d of 2 probes admitted)\n",
		resp.Result.Verdict, admitted)
	return nil
}

// driveChurn replays generated churn scenarios (the `edfgen -churn`
// format) through real sessions, one per workload model, shadowing the
// committed/pending counters client-side: any drift between the shadow
// and the server's counts means a propose, commit or rollback moved
// state it should not have — exactly the regression class the
// incremental admission path could introduce.
func driveChurn(ctx context.Context, c *client.Client) error {
	for _, events := range []bool{false, true} {
		name := "sporadic"
		if events {
			name = "events"
		}
		sc, err := edf.GenerateChurn("smoke-"+name, edf.ChurnConfig{
			SeedTasks: 8, Ops: 60, Events: events,
		}, newDeterministicRand())
		if err != nil {
			return fmt.Errorf("churn %s: generate: %w", name, err)
		}
		h, state, err := c.OpenSession(ctx, service.SessionRequest{Workload: sc.Seed})
		if err != nil {
			return fmt.Errorf("churn %s: open: %w", name, err)
		}
		committed, pending := state.Committed, 0
		admitted, escalated := 0, 0
		for i, op := range sc.Ops {
			switch op.Op {
			case edf.ChurnPropose:
				pr, err := h.Propose(ctx, service.ProposeRequest{Task: *op.Task})
				if err != nil {
					return fmt.Errorf("churn %s: op %d: %w", name, i, err)
				}
				if pr.Admitted {
					pending++
					admitted++
				}
				if pr.Escalated {
					escalated++
				}
				if pr.Committed != committed || pr.Pending != pending {
					return fmt.Errorf("churn %s: op %d: state %d/%d, shadow %d/%d",
						name, i, pr.Committed, pr.Pending, committed, pending)
				}
			case edf.ChurnCommit:
				cr, err := h.Commit(ctx)
				if err != nil {
					return fmt.Errorf("churn %s: op %d commit: %w", name, i, err)
				}
				if cr.Moved != pending || cr.Committed != committed+pending {
					return fmt.Errorf("churn %s: op %d: commit moved %d of %d pending",
						name, i, cr.Moved, pending)
				}
				committed += pending
				pending = 0
			case edf.ChurnRollback:
				rr, err := h.Rollback(ctx)
				if err != nil {
					return fmt.Errorf("churn %s: op %d rollback: %w", name, i, err)
				}
				if rr.Moved != pending || rr.Committed != committed {
					return fmt.Errorf("churn %s: op %d: rollback moved %d of %d pending",
						name, i, rr.Moved, pending)
				}
				pending = 0
			}
		}
		if err := h.Close(ctx); err != nil {
			return fmt.Errorf("churn %s: close: %w", name, err)
		}
		fmt.Printf("edfsmoke: %s churn ok (%d ops, %d admitted, %d escalated)\n",
			name, len(sc.Ops), admitted, escalated)
	}
	return nil
}

// newDeterministicRand gives the churn phase a fixed seed so smoke
// failures reproduce.
func newDeterministicRand() *rand.Rand { return rand.New(rand.NewSource(20260808)) }

// driveCluster runs the proxy-specific checks: ring affinity, split
// batch determinism and the aggregate metrics page.
func driveCluster(ctx context.Context, c *client.Client, n int) error {
	// Affinity: distinct workloads spread over the ring; each repeat must
	// land on its first replica and hit that replica's cache.
	servedBy := map[string]bool{}
	for i := range 12 {
		wl := edf.SporadicWorkload(edf.TaskSet{
			{Name: "a", WCET: 1, Deadline: 40 + int64(i), Period: 100 + int64(i)},
			{Name: "b", WCET: 2, Deadline: 90, Period: 200},
		})
		first, rt1, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: wl})
		if err != nil {
			return fmt.Errorf("cluster analyze %d: %w", i, err)
		}
		if rt1.Replica == "" {
			return fmt.Errorf("cluster analyze %d: proxy did not name a replica", i)
		}
		again, rt2, err := c.Analyze(ctx, service.AnalyzeRequest{Workload: wl})
		if err != nil {
			return fmt.Errorf("cluster re-analyze %d: %w", i, err)
		}
		if rt2.Replica != rt1.Replica {
			return fmt.Errorf("workload %d remapped: %s then %s", i, rt1.Replica, rt2.Replica)
		}
		if !again.Cached || again.Fingerprint != first.Fingerprint {
			return fmt.Errorf("workload %d repeat missed the cache on %s", i, rt2.Replica)
		}
		servedBy[rt1.Replica] = true
	}
	if n > 1 && len(servedBy) < 2 {
		return fmt.Errorf("12 distinct workloads all routed to one replica: %v", servedBy)
	}
	fmt.Printf("edfsmoke: cluster affinity ok (%d replicas served, repeats cached)\n", len(servedBy))

	// Deterministic split/merge: a mixed-model batch large enough to
	// split, issued twice, must come back in identical set-major order
	// with identical verdicts.
	req := service.BatchRequest{Analyzers: []string{"cascade"}}
	for i := range 10 {
		req.Sets = append(req.Sets, service.WorkloadSet{
			Name: fmt.Sprintf("set-%d", i),
			Workload: edf.SporadicWorkload(edf.TaskSet{
				{Name: "t", WCET: 2, Deadline: 50 + int64(i), Period: 80 + int64(i)},
			}),
		})
	}
	req.Sets = append(req.Sets, service.WorkloadSet{
		Name: "ev",
		Workload: edf.EventWorkload([]edf.EventTask{
			{Name: "p", WCET: 1, Deadline: 9, Stream: edf.PeriodicStream(10)},
		}),
	})
	norm := func(r service.BatchResponse) (string, error) {
		for i := range r.Results {
			r.Results[i].WallNS = 0
			r.Results[i].Cached = false
		}
		b, err := json.Marshal(r)
		return string(b), err
	}
	first, rt, err := c.Batch(ctx, req)
	if err != nil {
		return fmt.Errorf("cluster batch: %w", err)
	}
	for i, jr := range first.Results {
		if jr.SetIndex != i || jr.SetName != req.Sets[i].Name {
			return fmt.Errorf("cluster batch order broken at %d: set %d %q", i, jr.SetIndex, jr.SetName)
		}
		if jr.Err != "" {
			return fmt.Errorf("cluster batch job %d failed: %s", i, jr.Err)
		}
	}
	again, _, err := c.Batch(ctx, req)
	if err != nil {
		return fmt.Errorf("cluster batch repeat: %w", err)
	}
	a, err := norm(first)
	if err != nil {
		return err
	}
	b, err := norm(again)
	if err != nil {
		return err
	}
	if a != b {
		return fmt.Errorf("cluster batch not deterministic:\n%s\nvs\n%s", a, b)
	}
	split := "unsplit"
	if strings.Contains(rt.Replica, ",") {
		split = "split across " + rt.Replica
	}
	fmt.Printf("edfsmoke: cluster batch deterministic through the merge path (%s)\n", split)

	// Aggregate metrics: proxy counters plus fleet-summed replica
	// counters on one page.
	text, err := c.Metrics(ctx)
	if err != nil {
		return fmt.Errorf("cluster metrics: %w", err)
	}
	for _, want := range []string{
		"edfproxy_analyze_routed_total",
		"edfproxy_replicas_healthy " + fmt.Sprint(n),
		"edfd_cache_hits",
		"{replica=",
	} {
		if !strings.Contains(text, want) {
			return fmt.Errorf("aggregate metrics missing %q:\n%s", want, text)
		}
	}
	fmt.Println("edfsmoke: cluster aggregate metrics ok")
	return nil
}

// driveFeed subscribes to the live admission feed (fleet-wide and
// per-session), drives session churn underneath it, and asserts every
// decision event carries a trace ID that resolves to a span record on
// the same endpoint. On failure the captured event stream is dumped, so
// a missing or malformed event is diagnosable from the log.
func driveFeed(ctx context.Context, c *client.Client, cluster bool) error {
	var tail harness.TailBuffer
	fail := func(err error) error {
		if out := strings.TrimSpace(tail.String()); out != "" {
			fmt.Fprintf(os.Stderr, "edfsmoke: --- event stream tail ---\n%s\nedfsmoke: --- end event stream ---\n", out)
		}
		return err
	}
	feedCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	fleetCh, err := c.FleetEvents(feedCtx)
	if err != nil {
		return fail(fmt.Errorf("feed: fleet subscribe: %w", err))
	}
	// Against a proxy the fleet feed's per-replica relays connect
	// asynchronously after the subscribe returns; give them a moment so
	// the open event of the session below cannot slip past the fan-in.
	time.Sleep(500 * time.Millisecond)

	h, _, err := c.OpenSession(ctx, service.SessionRequest{})
	if err != nil {
		return fail(fmt.Errorf("feed: open session: %w", err))
	}
	ownCh, err := c.Events(feedCtx, h.ID)
	if err != nil {
		return fail(fmt.Errorf("feed: session subscribe: %w", err))
	}

	// Churn under the live feed: three proposes, a commit, one more
	// propose, a rollback, then close — seven events for this session.
	proposes := 0
	for i := range 3 {
		if _, err := h.Propose(ctx, service.ProposeRequest{
			Task: service.SporadicTask(edf.Task{WCET: 1, Deadline: 50 + int64(i), Period: 100}),
		}); err != nil {
			return fail(fmt.Errorf("feed: propose %d: %w", i, err))
		}
		proposes++
	}
	if _, err := h.Commit(ctx); err != nil {
		return fail(fmt.Errorf("feed: commit: %w", err))
	}
	if _, err := h.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{WCET: 1, Deadline: 80, Period: 160}),
	}); err != nil {
		return fail(fmt.Errorf("feed: extra propose: %w", err))
	}
	proposes++
	if _, err := h.Rollback(ctx); err != nil {
		return fail(fmt.Errorf("feed: rollback: %w", err))
	}
	if err := h.Close(ctx); err != nil {
		return fail(fmt.Errorf("feed: close: %w", err))
	}

	// Collect this session's events off the fleet feed until the close
	// arrives (the feed is ordered per publisher, so close is last).
	record := func(src string, ev obs.Event) {
		b, _ := json.Marshal(ev)
		fmt.Fprintf(&tail, "%s %s\n", src, b)
	}
	counts := map[string]int{}
	var mine []obs.Event
	deadline := time.After(15 * time.Second)
collect:
	for {
		select {
		case ev, ok := <-fleetCh:
			if !ok {
				return fail(fmt.Errorf("feed: fleet stream closed early"))
			}
			record("fleet", ev)
			if ev.Session != h.ID {
				continue
			}
			mine = append(mine, ev)
			counts[ev.Type]++
			if ev.Type == obs.EventClose {
				break collect
			}
		case <-deadline:
			return fail(fmt.Errorf("feed: timed out waiting for events (got %v)", counts))
		case <-ctx.Done():
			return fail(ctx.Err())
		}
	}
	decisions := counts[obs.EventAdmit] + counts[obs.EventReject]
	if decisions != proposes || counts[obs.EventCommit] != 1 ||
		counts[obs.EventRollback] != 1 || counts[obs.EventOpen] != 1 {
		return fail(fmt.Errorf("feed: event counts off: %v for %d proposes", counts, proposes))
	}

	// Every decision, commit and rollback must carry a trace that
	// resolves to at least one span on this same endpoint; fleet events
	// must name their replica when a proxy fans them in.
	for _, ev := range mine {
		if ev.Type == obs.EventOpen || ev.Type == obs.EventClose {
			continue
		}
		if ev.Trace == "" {
			return fail(fmt.Errorf("feed: %s event without trace: %+v", ev.Type, ev))
		}
		tr, err := c.Trace(ctx, ev.Trace)
		if err != nil {
			return fail(fmt.Errorf("feed: %s trace %s unresolvable: %w", ev.Type, ev.Trace, err))
		}
		if len(tr.Spans) == 0 {
			return fail(fmt.Errorf("feed: %s trace %s has no spans", ev.Type, ev.Trace))
		}
		if cluster && ev.Replica == "" {
			return fail(fmt.Errorf("feed: fleet event without replica label: %+v", ev))
		}
	}

	// The per-session stream must deliver the same events in sequence
	// order; after close it goes quiet, so drain what is buffered.
	var ownSeqs []uint64
drain:
	for range mine {
		select {
		case ev, ok := <-ownCh:
			if !ok {
				break drain
			}
			record("session", ev)
			if ev.Session != h.ID {
				return fail(fmt.Errorf("feed: session stream leaked session %q", ev.Session))
			}
			ownSeqs = append(ownSeqs, ev.Seq)
		case <-time.After(5 * time.Second):
			break drain
		}
	}
	if len(ownSeqs) < len(mine)-1 { // open may predate the subscription
		return fail(fmt.Errorf("feed: session stream saw %d of %d events", len(ownSeqs), len(mine)))
	}
	for i := 1; i < len(ownSeqs); i++ {
		if ownSeqs[i] <= ownSeqs[i-1] {
			return fail(fmt.Errorf("feed: session stream out of order: %v", ownSeqs))
		}
	}

	// The metrics page must stay valid Prometheus exposition with the
	// feed counters on it.
	text, err := c.Metrics(ctx)
	if err != nil {
		return fail(fmt.Errorf("feed: metrics: %w", err))
	}
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		return fail(fmt.Errorf("feed: metrics page not valid exposition: %w", err))
	}
	fmt.Printf("edfsmoke: feed ok (%d events traced, metrics page valid)\n", len(mine))
	return nil
}

// driveRecovery is the single-daemon durability phase: open a session,
// commit part of it, kill the edfd with SIGKILL mid-state, restart it on
// the same store directory, and require the committed admission state
// back — pending proposals dropped, further proposals deciding normally.
func driveRecovery(ctx context.Context, daemons *harness.Fleet, edfdPath, storeDir string, d *harness.Daemon) error {
	c := client.New(d.URL(), nil)
	h, _, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 10, Deadline: 90, Period: 100}}),
	})
	if err != nil {
		return fmt.Errorf("recovery: open: %w", err)
	}
	for _, tk := range []edf.Task{
		{Name: "a", WCET: 20, Deadline: 150, Period: 200},
		{Name: "b", WCET: 5, Deadline: 40, Period: 50},
	} {
		if pr, err := h.Propose(ctx, service.ProposeRequest{Task: service.SporadicTask(tk)}); err != nil || !pr.Admitted {
			return fmt.Errorf("recovery: propose %s: %+v, %v", tk.Name, pr, err)
		}
	}
	if _, err := h.Commit(ctx); err != nil {
		return fmt.Errorf("recovery: commit: %w", err)
	}
	// A pending proposal the crash must discard.
	if pr, err := h.Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "pend", WCET: 1, Deadline: 100, Period: 100}),
	}); err != nil || !pr.Admitted {
		return fmt.Errorf("recovery: pending propose: %+v, %v", pr, err)
	}

	// kill -9: no drain, no goodbye — the log on disk is all that's left.
	d.Kill()
	fmt.Println("edfsmoke: killed edfd with SIGKILL, restarting on", storeDir)

	d2, err := daemons.Start(ctx, "edfd", edfdPath, "-addr", "127.0.0.1:0", "-session-ttl", "10m",
		"-store-dir", storeDir, "-store-node", "edfd-smoke")
	if err != nil {
		return fmt.Errorf("recovery: restart: %w", err)
	}
	c2 := client.New(d2.URL(), nil)
	if err := harness.WaitHealthy(ctx, c2); err != nil {
		return err
	}
	st, _, err := c2.Session(h.ID).State(ctx)
	if err != nil {
		return fmt.Errorf("recovery: session %s did not resume: %w", h.ID, err)
	}
	if st.Committed != 3 || st.Pending != 0 {
		return fmt.Errorf("recovery: resumed state committed=%d pending=%d, want 3/0", st.Committed, st.Pending)
	}
	if pr, err := c2.Session(h.ID).Propose(ctx, service.ProposeRequest{
		Task: service.SporadicTask(edf.Task{Name: "post", WCET: 1, Deadline: 200, Period: 200}),
	}); err != nil || !pr.Admitted {
		return fmt.Errorf("recovery: post-restart propose: %+v, %v", pr, err)
	}
	fmt.Printf("edfsmoke: recovery ok (session %s resumed with %d committed after kill -9)\n", h.ID, st.Committed)
	return nil
}

// driveTakeover is the cluster durability phase: with live sessions on
// every replica, kill one owner and require the proxy to drain every
// session — the dead owner's via a takeover peer — with no client-visible
// error.
func driveTakeover(ctx context.Context, daemons *harness.Fleet, c *client.Client) error {
	const sessions = 6
	handles := make([]*client.Session, sessions)
	for i := range handles {
		h, _, err := c.OpenSession(ctx, service.SessionRequest{
			Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 1, Deadline: 400, Period: 500}}),
		})
		if err != nil {
			return fmt.Errorf("takeover: open %d: %w", i, err)
		}
		if pr, err := h.Propose(ctx, service.ProposeRequest{
			Task: service.SporadicTask(edf.Task{Name: "w", WCET: 2, Deadline: 300, Period: 300}),
		}); err != nil || !pr.Admitted {
			return fmt.Errorf("takeover: session %d propose: %+v, %v", i, pr, err)
		}
		if _, err := h.Commit(ctx); err != nil {
			return fmt.Errorf("takeover: session %d commit: %w", i, err)
		}
		handles[i] = h
	}
	_, rt, err := handles[0].State(ctx)
	if err != nil {
		return fmt.Errorf("takeover: owner lookup: %w", err)
	}
	owner := rt.Owner
	victim := byURL(daemons, owner)
	if victim == nil {
		return fmt.Errorf("takeover: owner %q is not a spawned daemon", owner)
	}
	victim.Kill()
	fmt.Println("edfsmoke: killed session owner", owner)

	tookOver := 0
	for i, h := range handles {
		pr, prt, err := h.ProposeRouted(ctx, service.ProposeRequest{
			Task: service.SporadicTask(edf.Task{Name: "x", WCET: 1, Deadline: 250, Period: 250}),
		})
		if err != nil {
			return fmt.Errorf("takeover: session %d after owner death: %w", i, err)
		}
		if !pr.Admitted || pr.Committed != 2 {
			return fmt.Errorf("takeover: session %d post-kill state: %+v", i, pr)
		}
		if prt.TakenOverFrom != "" {
			if prt.TakenOverFrom != owner {
				return fmt.Errorf("takeover: session %d taken over from %q, owner was %q", i, prt.TakenOverFrom, owner)
			}
			tookOver++
		}
		if err := h.Close(ctx); err != nil {
			return fmt.Errorf("takeover: session %d close: %w", i, err)
		}
	}
	if tookOver == 0 {
		return fmt.Errorf("takeover: no session reported takeover attribution despite a dead owner")
	}
	fmt.Printf("edfsmoke: takeover ok (%d sessions drained, %d taken over from %s)\n",
		sessions, tookOver, owner)
	return nil
}

// byURL finds the daemon behind a base URL like "http://127.0.0.1:port".
func byURL(f *harness.Fleet, url string) *harness.Daemon {
	for _, d := range f.Daemons {
		if d.URL() == url {
			return d
		}
	}
	return nil
}

// dumpStore prints the store directory listing and the tail of each log
// segment, so a recovery failure is diagnosable from CI output alone.
func dumpStore(w io.Writer, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintf(w, "edfsmoke: store dir %s unreadable: %v\n", dir, err)
		return
	}
	fmt.Fprintf(w, "edfsmoke: --- store dir %s ---\n", dir)
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			fmt.Fprintf(w, "  %s (stat: %v)\n", e.Name(), err)
			continue
		}
		fmt.Fprintf(w, "  %s  %d bytes\n", e.Name(), info.Size())
		if strings.HasPrefix(e.Name(), "wal-") {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err == nil {
				const tail = 512
				if len(b) > tail {
					b = b[len(b)-tail:]
				}
				fmt.Fprintf(w, "  tail: %q\n", b)
			}
		}
	}
	fmt.Fprintln(w, "edfsmoke: --- end store dir ---")
}
