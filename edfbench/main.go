// Command edfbench is the repository's end-to-end benchmark. For one
// workload and seed it generates the inputs, boots edfd (and edfproxy)
// in-process on loopback ports, drives them closed-loop from two clients
// through the typed client library, checks every answer against an
// independent oracle and prints every metric by name with its unit. The
// last line of standard output is the result object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; --trace 1 runs the
// same seed and inputs untraced, then traced, then through the layers'
// public functions in-process, and reports the per-layer metrics.
// --smoke runs every workload briefly, traced, with its oracle.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash edfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
//
// NOTES.md records why each workload exists and what it should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/service/client"
)

// spec names one workload. rate is the nominal request rate of its timed
// phase on a 2-vCPU machine: a run sends round(rate × --seconds)
// requests, a fixed amount of work for a given seed and length, with no
// time box and no rate search.
type spec struct {
	name string
	rate float64
	make func() mix
}

var specs = []spec{
	{"analyze-cold", 5500, func() mix { return &analyzeCold{} }},
	{"fleet-hot", 3800, func() mix { return &fleetHot{} }},
	{"session-churn", 2500, func() mix { return &sessionChurn{} }},
	{"partition-cold", 340, func() mix { return &partitionCold{} }},
}

func (s spec) ops(seconds float64) int { return max(clients, int(math.Round(s.rate*seconds))) }

func lookup(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// setupReps is how many times an end-to-end run sets the workload up:
// setup_s is the median of their process CPU time, and the last set-up
// feeds the timed phase. CPU time is the set-up's work without the
// hypervisor's steal, which moved the median wall-clock set-up of
// fleet-hot by 32% between two batches of the same code; the wall-clock
// set-ups are printed in the run log.
const setupReps = 5

// metricSpec is one reported metric.
type metricSpec struct{ name, unit string }

// endToEnd are the gated metrics a user of the system sees. The median
// latency and CPU per request are gated as ratios to the host-speed
// reference (reference.go): in milliseconds they drift 15–30% with the
// host between identical runs, and are printed in the run log instead.
// So are wall throughput (ops_per_s) and the tail (p90, p99). With two
// closed-loop clients throughput is their count over the mean latency,
// and it also absorbs group-commit timer waits and hypervisor steal: over
// ten seeds of session-churn its spread was 12% where the latencies and
// CPU per request spread 4–5% in the same runs. A burst of steal lands in
// the tail first: between two batches of the same code, fleet-hot's p90
// median moved 30% while its CPU per request moved 16%.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_vs_ref", "ratio"},
	{"cpu_per_op_vs_ref", "ratio"},
	{"heap_live_mb", "MB"},
}

// metricSet maps metric names to values.
type metricSet map[string]float64

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == referenceFlag {
		os.Exit(serveReference(os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "nominal length of the timed phase; sets the fixed request count")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "run every workload briefly, traced, with its oracle")
	out := fs.String("out", filepath.Join(".bench_build", "edfbench"), "directory for span dumps and session stores")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "edfbench:", err)
		return 1
	}
	ctx := context.Background()
	if *smoke {
		return runSmoke(ctx, *seed, *out, stdout, stderr)
	}
	sp, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "edfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names(), ", "))
		return 2
	}
	var res runResult
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, sp, *seed, *seconds, *out)
	} else {
		res, err = runE2E(ctx, sp, *seed, *seconds, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "edfbench: %s: %v\n", sp.name, err)
		return 1
	}
	for _, d := range res.diag {
		fmt.Fprintln(stdout, d)
	}
	list := endToEnd
	if *trace == 1 {
		list = perLayer
	}
	line, err := res.json(list)
	if err != nil {
		fmt.Fprintln(stderr, "edfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

func names() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.name
	}
	return out
}

// runResult is one run's outcome before printing.
type runResult struct {
	attempted, failed int
	metrics           metricSet
	diag              []string
}

// json renders the result line with exactly the listed metrics.
func (r runResult) json(list []metricSpec) (string, error) {
	res := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricJSON, len(list)),
	}
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

// setup is one set-up of a workload: daemons booted, clients connected
// and warm, answer slots ready.
type setup struct {
	f        *fleet
	cs       []*client.Client
	trs      []*http.Transport
	ph       *phase
	base     heapBaseline
	dur, cpu time.Duration // wall and process CPU time of boot + warm-up
	dir      string
}

// setUp boots the daemons for generated inputs and warms them. The heap
// baseline is read first, after generation and before boot; its forced
// GC is instrumentation and stays out of dur and cpu.
func setUp(ctx context.Context, w mix, out string) (*setup, error) {
	w.begin()
	s := &setup{ph: newPhase(w.requests())}
	s.base = heapBaseline{liveHeap()}
	cpu0 := cpuTime()
	start := time.Now()
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, err
	}
	s.dir = dir
	if s.f, err = w.boot(dir); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for range clients {
		c, tr := newClient(s.f.url)
		s.cs, s.trs = append(s.cs, c), append(s.trs, tr)
	}
	if err := w.warm(ctx, s.f, s.cs); err != nil {
		s.close()
		return nil, err
	}
	s.dur, s.cpu = time.Since(start), cpuTime()-cpu0
	return s, nil
}

func (s *setup) close() {
	for _, tr := range s.trs {
		tr.CloseIdleConnections()
	}
	s.f.close()
	os.RemoveAll(s.dir)
}

// segments splits a timed phase into consecutive closed-loop runs over
// contiguous slices of the jobs, each followed by a reference burst, so
// each segment is compared with the host's speed right after it. The
// per-request metrics are medians over segments or requests, so a burst
// of hypervisor steal or a noisy neighbour that slows a minority of them
// does not move the run's figure.
const segments = 20

// segment is what one slice of the timed phase measured: requests
// first .. first+requests-1.
type segment struct {
	first      int
	requests   int
	wall, cpu  time.Duration
	p50, p90   float64 // ms
	stealShare float64
	ref        refSample
}

func (sg segment) cpuPerOp() float64 {
	return float64(sg.cpu.Nanoseconds()) / 1e6 / float64(sg.requests)
}

// timedStats is what one timed phase measured.
type timedStats struct {
	segs           []segment
	latVsRef       []float64 // each request's latency over its segment's reference p50
	wall, cpu      time.Duration
	rt0, rt1       runtimeSample
	steal          float64
	heapMB         float64
	delta          map[string]float64
	sortedLatency  []int64
	requests, fail int
	firstErr       error
}

// timed runs the closed loop over every job, segment by segment, with a
// reference burst after each, and checks the answers.
func timed(ctx context.Context, w mix, s *setup, tr *tracer, probe *refProbe) (timedStats, error) {
	s.ph.tracer = tr
	callers := make([]*caller, len(s.cs))
	for i, c := range s.cs {
		callers[i] = &caller{c: c, ph: s.ph}
	}
	c0, err := s.f.counters(ctx)
	if err != nil {
		return timedStats{}, err
	}
	st0, tt0, ok0 := cpuTicks()
	rt0 := readRuntime()
	var t timedStats
	n := w.jobs()
	for k := range segments {
		lo, hi := k*n/segments, (k+1)*n/segments
		if lo == hi {
			continue
		}
		sa, ta, oka := cpuTicks()
		cpu0 := cpuTime()
		start := time.Now()
		runJobs(clients, lo, hi, func(wk, j int) { w.do(ctx, callers[wk], j) })
		wall := time.Since(start)
		cpu := cpuTime() - cpu0
		sb, tb, okb := cpuTicks()
		first := w.firstRequest(lo)
		lat := slices.Clone(s.ph.lat[first:w.firstRequest(hi)])
		slices.Sort(lat)
		sg := segment{
			first: first, requests: len(lat), wall: wall, cpu: cpu,
			p50:        float64(sortedPercentile(lat, 0.5)) / 1e6,
			p90:        float64(sortedPercentile(lat, 0.9)) / 1e6,
			stealShare: stealShare(sa, ta, sb, tb, oka && okb),
		}
		if sg.ref, err = probe.burst(); err != nil {
			return timedStats{}, err
		}
		t.segs = append(t.segs, sg)
		t.wall += wall
		t.cpu += cpu
	}
	t.rt0, t.rt1 = rt0, readRuntime()
	st1, tt1, ok1 := cpuTicks()
	c1, err := s.f.counters(ctx)
	if err != nil {
		return timedStats{}, err
	}
	heap := liveHeap()
	t.delta = make(map[string]float64, len(c1))
	for k, v := range c1 {
		t.delta[k] = v - c0[k]
	}
	w.check(s.ph)
	for _, sg := range t.segs {
		t.latVsRef = appendVsRef(t.latVsRef, s.ph.lat[sg.first:sg.first+sg.requests], sg.ref)
	}
	t.sortedLatency = slices.Clone(s.ph.lat)
	slices.Sort(t.sortedLatency)
	t.steal = stealShare(st0, tt0, st1, tt1, ok0 && ok1)
	t.heapMB = s.base.growthMB(heap)
	t.requests = len(t.sortedLatency)
	t.fail = s.ph.failures()
	t.firstErr = s.ph.firstErr
	return t, nil
}

// segMedian is the median of a per-segment figure.
func (t timedStats) segMedian(f func(segment) float64) float64 {
	xs := make([]float64, len(t.segs))
	for i, sg := range t.segs {
		xs[i] = f(sg)
	}
	return median(xs)
}

func (t timedStats) opsPerS() float64 {
	return t.segMedian(func(sg segment) float64 { return float64(sg.requests) / sg.wall.Seconds() })
}

func (t timedStats) p50() float64 { return t.segMedian(func(sg segment) float64 { return sg.p50 }) }
func (t timedStats) p90() float64 { return t.segMedian(func(sg segment) float64 { return sg.p90 }) }

func (t timedStats) cpuPerOp() float64 { return t.segMedian(segment.cpuPerOp) }

// p50VsRef is the median over all requests of a request's latency over
// the p50 of the reference burst after its segment. Pooling the requests
// keeps the median of a few hundred heavy-tailed placements per segment
// from swinging it: on partition-cold a median of per-segment ratios
// spread 9% over ten seeds.
func (t timedStats) p50VsRef() float64 { return median(t.latVsRef) }

// cpuVsRef is the median over segments of a segment's CPU per request
// over the reference burst's that followed it.
func (t timedStats) cpuVsRef() float64 {
	return t.segMedian(func(sg segment) float64 { return sg.cpuPerOp() / sg.ref.cpuPerOp })
}

// appendVsRef appends each latency (ns) over the reference p50 (ms).
func appendVsRef(dst []float64, lat []int64, ref refSample) []float64 {
	for _, l := range lat {
		dst = append(dst, float64(l)/1e6/ref.p50)
	}
	return dst
}

// diag renders the run-log diagnostics: not gated, but they tell a
// drifting or steal-hit pair of runs apart from a regression.
func (t timedStats) diag(name string) string {
	segs := make([]string, len(t.segs))
	for i, sg := range t.segs {
		segs[i] = fmt.Sprintf("%.3f/%.4f/%.4f/%.4f/%.4f", sg.stealShare, sg.cpuPerOp(), sg.p50, sg.ref.cpuPerOp, sg.ref.p50)
	}
	d := fmt.Sprintf("diag %s: requests=%d wall_s=%.3f ops_per_s=%.1f latency_p50_ms=%.4f cpu_ms_per_op=%.4f latency_p90_ms=%.4f "+
		"latency_p99_ms=%.4f p99_samples=%d p99_beyond=%d steal_share=%.4f "+
		"segments(steal/cpu_ms_per_op/p50_ms/ref_cpu_ms_per_op/ref_p50_ms)=[%s] runtime.gc_cpu_share=%.4f",
		name, t.requests, t.wall.Seconds(), t.opsPerS(), t.p50(), t.cpuPerOp(), t.p90(),
		float64(sortedPercentile(t.sortedLatency, 0.99))/1e6, t.requests, beyond(t.sortedLatency, 0.99), t.steal,
		strings.Join(segs, " "), gcShare(t.rt0, t.rt1))
	if t.firstErr != nil {
		d += fmt.Sprintf(" failed=%d first_failure=%q", t.fail, t.firstErr.Error())
	}
	return d
}

// runE2E measures the end-to-end metrics, untraced. The reference process
// starts first, so its handle is in every set-up's heap baseline.
func runE2E(ctx context.Context, sp spec, seed int64, seconds float64, out string) (res runResult, err error) {
	probe, err := startProbe()
	if err != nil {
		return runResult{}, err
	}
	defer func() {
		if cerr := probe.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	calBefore := calibrate()
	ops := sp.ops(seconds)
	var setupCPU, setupWall []float64
	var s *setup
	var w mix
	for range setupReps {
		if s != nil {
			s.close()
		}
		w = sp.make()
		// Each set-up starts from a collected heap, so the garbage of the
		// set-up before it is not charged to it.
		runtime.GC()
		cpu0 := cpuTime()
		start := time.Now()
		w.generate(seed, ops)
		gen, genCPU := time.Since(start), cpuTime()-cpu0
		if s, err = setUp(ctx, w, out); err != nil {
			return runResult{}, err
		}
		setupCPU = append(setupCPU, (genCPU + s.cpu).Seconds())
		setupWall = append(setupWall, (gen + s.dur).Seconds())
	}
	defer s.close()
	t, err := timed(ctx, w, s, nil, probe)
	if err != nil {
		return runResult{}, err
	}
	calAfter := calibrate()
	return runResult{
		attempted: t.requests,
		failed:    t.fail,
		metrics: metricSet{
			"setup_s":            median(setupCPU),
			"latency_p50_vs_ref": t.p50VsRef(),
			"cpu_per_op_vs_ref":  t.cpuVsRef(),
			"heap_live_mb":       t.heapMB,
		},
		diag: []string{
			t.diag(sp.name),
			fmt.Sprintf("diag %s: setup_cpu_s=%v setup_wall_s=%v calibration_ms_before=%.3f calibration_ms_after=%.3f",
				sp.name, setupCPU, setupWall, calBefore, calAfter),
		},
	}, nil
}
