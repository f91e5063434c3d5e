package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// traceFetches bounds how many requests of a traced phase get the
// daemons' own spans attached.
const traceFetches = 1000

// runTraced reports the per-layer metrics. Over one generated input set
// it runs the timed phase untraced (the baseline for counts, runtime
// costs and tracing overhead), then traced on a fresh fleet (client spans
// with the daemons' spans attached for a sample), then mirrors the first
// inputs through each layer's public functions in-process. Every span is
// written to the output directory.
func runTraced(ctx context.Context, sp spec, seed int64, seconds float64, out string) (res runResult, err error) {
	w := sp.make()
	w.generate(seed, sp.ops(seconds))
	m := metricSet{}
	for _, s := range perLayer {
		m[s.name] = 0
	}
	probe, err := startProbe()
	if err != nil {
		return runResult{}, err
	}
	defer func() {
		if cerr := probe.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()

	s1, err := setUp(ctx, w, out)
	if err != nil {
		return runResult{}, err
	}
	t1, err := timed(ctx, w, s1, nil, probe)
	s1.close()
	if err != nil {
		return runResult{}, err
	}
	w.counts(m, s1.ph, t1.delta)
	fromCounters(m, t1.delta, t1.requests)
	n := float64(t1.requests)
	m["runtime.alloc_bytes_per_op"] = float64(t1.rt1.allocBytes-t1.rt0.allocBytes) / n
	m["runtime.allocs_per_op"] = float64(t1.rt1.allocs-t1.rt0.allocs) / n
	m["runtime.gc_cpu_share"] = gcShare(t1.rt0, t1.rt1)

	log := &spanLog{}
	tr := &tracer{log: log, every: max(1, t1.requests/traceFetches), prefix: "edfb"}
	s2, err := setUp(ctx, w, out)
	if err != nil {
		return runResult{}, err
	}
	t2, err := timed(ctx, w, s2, tr, probe)
	if err == nil {
		if fh, ok := w.(*fleetHot); ok {
			m["cluster.hop_us"] = fh.hop(ctx, s2, log)
		}
	}
	s2.close()
	if err != nil {
		return runResult{}, err
	}
	m["tracing.overhead_p50_share"] = t2.p50VsRef()/t1.p50VsRef() - 1
	m["tracing.overhead_cpu_share"] = t2.cpuVsRef()/t1.cpuVsRef() - 1

	var tally coreTally
	mirrored := w.mirror(ctx, log, &tally)
	self := selfTimes(log.spans)
	fromSpans(m, log.spans, self, mirrored, &tally)
	m["unattributed_share"] = unattributedShare(log.spans, self, tr.attached)

	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", sp.name, seed))
	if err := writeSpans(path, log.spans, self); err != nil {
		return runResult{}, err
	}
	return runResult{
		attempted: t1.requests + t2.requests,
		failed:    t1.fail + t2.fail,
		metrics:   m,
		diag: []string{
			t1.diag(sp.name + " untraced"),
			t2.diag(sp.name + " traced"),
			fmt.Sprintf("diag %s: mirrored=%d traces_attached=%d traces_missed=%d spans=%d spans_file=%s",
				sp.name, mirrored, len(tr.attached), tr.misses, len(log.spans), path),
		},
	}, nil
}

// smokeSeconds sizes the smoke runs: a few hundred requests per workload.
const smokeSeconds = 0.25

// runSmoke runs every workload briefly in both modes with its oracle and
// fails on any wrong answer or missing metric.
func runSmoke(ctx context.Context, seed int64, out string, stdout, stderr io.Writer) int {
	out = filepath.Join(out, "smoke")
	if err := os.MkdirAll(out, 0o755); err != nil {
		fmt.Fprintln(stderr, "smoke:", err)
		return 1
	}
	code := 0
	for _, sp := range specs {
		for _, mode := range []struct {
			name    string
			run     func(context.Context, spec, int64, float64, string) (runResult, error)
			metrics []metricSpec
		}{{"e2e", runE2E, endToEnd}, {"traced", runTraced, perLayer}} {
			start := time.Now()
			res, err := mode.run(ctx, sp, seed, smokeSeconds, out)
			if err == nil {
				_, err = res.json(mode.metrics)
			}
			if err == nil && (res.failed > 0 || res.attempted == 0) {
				err = fmt.Errorf("%d of %d requests failed", res.failed, res.attempted)
			}
			if err != nil {
				fmt.Fprintf(stderr, "smoke %s %s: FAIL: %v\n", sp.name, mode.name, err)
				code = 1
				continue
			}
			fmt.Fprintf(stdout, "smoke %s %s: ok, %d requests checked in %.1fs\n",
				sp.name, mode.name, res.attempted, time.Since(start).Seconds())
		}
	}
	if err := os.RemoveAll(out); err != nil {
		fmt.Fprintln(stderr, "smoke:", err)
	}
	return code
}
