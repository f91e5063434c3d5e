// Command edfpromlint is the metrics-contract lint behind `make
// lint-metrics`: it boots real daemons on ephemeral ports — edfd
// replicas behind an edfproxy — drives enough traffic to populate every
// counter family, then scrapes each daemon's /metrics page and validates
// it as Prometheus text exposition with the repo's own parser
// (internal/obs): # TYPE before samples, family contiguity, histogram
// +Inf/_count consistency, label escaping. It also enforces the naming
// contract: every family carries an edfd_ or edfproxy_ prefix.
//
// Usage:
//
//	edfpromlint [-replicas n] [-edfd path] [-edfproxy path] [-timeout 120s]
//
// Without -edfd/-edfproxy the daemons are compiled from ./cmd into a
// temp dir, so `go run ./cmd/edfpromlint` works from a clean checkout.
// On a lint failure the offending page is printed in full, and on any
// failure each daemon's captured stderr, so CI logs show exactly which
// line broke the format and what the daemons said.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
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
		replicas  = flag.Int("replicas", 2, "edfd replicas behind the proxy")
		edfdPath  = flag.String("edfd", "", "pre-built edfd binary (default: build ./cmd/edfd)")
		proxyPath = flag.String("edfproxy", "", "pre-built edfproxy binary (default: build ./cmd/edfproxy)")
		timeout   = flag.Duration("timeout", 120*time.Second, "overall deadline")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	daemons := &harness.Fleet{Tool: "edfpromlint"}
	err := run(ctx, daemons, *edfdPath, *proxyPath, *replicas)
	daemons.StopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "edfpromlint: FAIL:", err)
		daemons.DumpStderr(os.Stderr)
		os.Exit(1)
	}
	fmt.Println("edfpromlint: PASS")
}

func run(ctx context.Context, daemons *harness.Fleet, edfdPath, proxyPath string, n int) error {
	if n < 1 {
		return fmt.Errorf("-replicas must be >= 1")
	}
	if edfdPath == "" || proxyPath == "" {
		dir, err := os.MkdirTemp("", "edfpromlint")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if edfdPath == "" {
			if edfdPath, err = harness.BuildTool(ctx, dir, "edfd"); err != nil {
				return err
			}
		}
		if proxyPath == "" {
			if proxyPath, err = harness.BuildTool(ctx, dir, "edfproxy"); err != nil {
				return err
			}
		}
	}

	var urls []string
	for i := range n {
		d, err := daemons.Start(ctx, "edfd", edfdPath, "-addr", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
		urls = append(urls, d.URL())
	}
	proxy, err := daemons.Start(ctx, "edfproxy", proxyPath,
		"-addr", "127.0.0.1:0", "-replicas", strings.Join(urls, ","), "-health-interval", "250ms")
	if err != nil {
		return err
	}
	c := client.New(proxy.URL(), nil)
	if err := harness.WaitHealthy(ctx, c); err != nil {
		return err
	}

	// Touch every subsystem once so the scraped pages exercise live
	// counters and a populated latency histogram, not just zeros.
	if err := driveTraffic(ctx, c); err != nil {
		return err
	}

	for _, d := range daemons.Daemons {
		page, err := client.New(d.URL(), nil).Metrics(ctx)
		if err != nil {
			return fmt.Errorf("%s (%s): scraping /metrics: %w", d.Name, d.Addr, err)
		}
		families, samples, err := lintPage(d.Name, page)
		if err != nil {
			fmt.Fprintf(os.Stderr, "edfpromlint: --- %s (%s) /metrics ---\n%s\nedfpromlint: --- end ---\n",
				d.Name, d.Addr, strings.TrimSpace(page))
			return fmt.Errorf("%s (%s): %w", d.Name, d.Addr, err)
		}
		fmt.Printf("edfpromlint: %s (%s): %d families, %d samples ok\n",
			d.Name, d.Addr, families, samples)
	}
	return nil
}

// driveTraffic runs one request through each metered path: analyze
// (twice, for a cache hit), batch, and a session with propose, commit,
// rollback and close.
func driveTraffic(ctx context.Context, c *client.Client) error {
	set := edf.TaskSet{
		{Name: "ctrl", WCET: 2, Deadline: 8, Period: 10},
		{Name: "io", WCET: 3, Deadline: 15, Period: 15},
	}
	wl := edf.SporadicWorkload(set)
	for range 2 {
		if _, _, err := c.Analyze(ctx, service.AnalyzeRequest{Name: "lint", Workload: wl}); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
	}
	if _, _, err := c.Batch(ctx, service.BatchRequest{
		Sets:      []service.WorkloadSet{{Name: "lint", Workload: wl}},
		Analyzers: []string{"cascade"},
	}); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	h, _, err := c.OpenSession(ctx, service.SessionRequest{Workload: wl})
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	task := service.SporadicTask(edf.Task{Name: "a", WCET: 1, Deadline: 50, Period: 100})
	if _, err := h.Propose(ctx, service.ProposeRequest{Task: task}); err != nil {
		return fmt.Errorf("propose: %w", err)
	}
	if _, err := h.Commit(ctx); err != nil {
		return fmt.Errorf("commit: %w", err)
	}
	if _, err := h.Propose(ctx, service.ProposeRequest{Task: task}); err != nil {
		return fmt.Errorf("re-propose: %w", err)
	}
	if _, err := h.Rollback(ctx); err != nil {
		return fmt.Errorf("rollback: %w", err)
	}
	if err := h.Close(ctx); err != nil {
		return fmt.Errorf("close session: %w", err)
	}
	// One placement per replica: partition requests are fingerprint-sticky,
	// so distinct workloads are needed to touch every replica's
	// edfd_partition_ counters. More variants than replicas makes full
	// coverage near-certain on the two-replica default.
	procs := []edf.Processor{{Name: "p0"}, {Name: "p1", Speed: 2}}
	for i := range 8 {
		_, _, err := c.Partition(ctx, service.PartitionRequest{
			Name: fmt.Sprintf("lint-%d", i),
			Workload: edf.PartitionedWorkload(procs, []edf.PartitionedTask{
				{Task: edf.Task{Name: "a", WCET: 6, Deadline: 10 + int64(i), Period: 10 + int64(i)}},
				{Task: edf.Task{Name: "b", WCET: 6, Deadline: 10, Period: 10}},
			}),
		})
		if err != nil {
			return fmt.Errorf("partition %d: %w", i, err)
		}
	}
	return nil
}

// lintPage validates one exposition page: parseable, structurally sound
// (ValidateExposition), and every family named under the daemon prefix
// contract. Returns the family and sample counts for the pass banner.
func lintPage(daemon, page string) (families, samples int, err error) {
	if err := obs.ValidateExposition(strings.NewReader(page)); err != nil {
		return 0, 0, err
	}
	ss, types, err := obs.ParseExpositionTyped(strings.NewReader(page))
	if err != nil {
		return 0, 0, err
	}
	if len(ss) == 0 {
		return 0, 0, fmt.Errorf("page has no samples")
	}
	for name := range types {
		if !strings.HasPrefix(name, "edfd_") && !strings.HasPrefix(name, "edfproxy_") {
			return 0, 0, fmt.Errorf("family %q lacks the edfd_/edfproxy_ prefix", name)
		}
	}
	// Fast-path observability contract: every page must export the
	// bounded-denominator promotion counter — replicas natively, the
	// proxy as a fleet sum next to its replica-labeled samples.
	if _, ok := types["edfd_arith_promotions_total"]; !ok {
		return 0, 0, fmt.Errorf("page lacks the edfd_arith_promotions_total family")
	}
	// Partitioned-placement observability contract: the partition counter
	// families must appear on every page — replicas natively, the proxy as
	// fleet sums — and the proxy must additionally export its own routing
	// counter for the endpoint.
	for _, fam := range []string{
		"edfd_partition_requests_total",
		"edfd_partition_feasible_total",
		"edfd_partition_infeasible_total",
		"edfd_partition_bin_checks_total",
		"edfd_partition_bin_cache_hits_total",
		"edfd_partition_gate_rejections_total",
	} {
		if _, ok := types[fam]; !ok {
			return 0, 0, fmt.Errorf("page lacks the %s family", fam)
		}
	}
	if daemon == "edfproxy" {
		if _, ok := types["edfproxy_partition_routed_total"]; !ok {
			return 0, 0, fmt.Errorf("proxy page lacks the edfproxy_partition_routed_total family")
		}
	}
	// The proxy page must also carry fleet aggregation: replica-labeled
	// samples next to their sums.
	if daemon == "edfproxy" {
		labeled := 0
		for _, s := range ss {
			if s.Label("replica") != "" {
				labeled++
			}
		}
		if labeled == 0 {
			return 0, 0, fmt.Errorf("proxy page has no replica-labeled samples")
		}
	}
	return len(types), len(ss), nil
}
