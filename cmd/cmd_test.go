// Package cmd_test builds and exercises the command line tools end to end.
package cmd_test

import (
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/service"
)

// buildTool compiles one command into a temp dir and returns the binary
// path.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = repoRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(wd) // cmd/ -> repo root
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	return string(out), err
}

func TestEdffeasOnExamples(t *testing.T) {
	bin := buildTool(t, "edffeas")
	out, err := run(t, bin, "-example", "burns")
	if err != nil {
		t.Fatalf("edffeas: %v\n%s", err, out)
	}
	for _, want := range []string{"processor-demand", "allapprox", "feasible", "devi"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Unknown example must fail with a usage error.
	if _, err := run(t, bin, "-example", "bogus"); err == nil {
		t.Error("bogus example accepted")
	}
	// Missing input must fail.
	if _, err := run(t, bin); err == nil {
		t.Error("missing -set/-example accepted")
	}
}

// TestEdffeasJSONMatchesServiceSchema pins the -json output to the edfd
// batch response schema: it must unmarshal into the service wire types
// with every analyzer's verdict populated.
func TestEdffeasJSONMatchesServiceSchema(t *testing.T) {
	bin := buildTool(t, "edffeas")
	out, err := run(t, bin, "-example", "burns", "-test", "devi,allapprox,cascade", "-json")
	if err != nil {
		t.Fatalf("edffeas -json: %v\n%s", err, out)
	}
	var resp service.BatchResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("output is not the service batch schema: %v\n%s", err, out)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3\n%s", len(resp.Results), out)
	}
	for i, jr := range resp.Results {
		if jr.Result.Verdict == "" || jr.Analyzer == "" {
			t.Errorf("result %d incomplete: %+v", i, jr)
		}
		if jr.SetIndex != 0 || jr.SetName == "" {
			t.Errorf("result %d set identity: %+v", i, jr)
		}
	}
	// devi is sufficient-only on this set shape; the exact tests decide.
	if v := resp.Results[1].Result.Verdict; v != "feasible" && v != "infeasible" {
		t.Errorf("allapprox verdict %q is not definite", v)
	}
	// -json must refuse modes it does not cover.
	for _, extra := range []string{"-curve=100", "-wcrt", "-slack"} {
		if _, err := run(t, bin, "-example", "burns", "-json", extra); err == nil {
			t.Errorf("-json %s accepted", extra)
		}
	}
}

// TestEdfgenEventsThroughEdffeas generates an event-stream workload with
// edfgen -events and drives it through edffeas -events, both as a table
// and as the service batch JSON schema with "model": "events" jobs.
func TestEdfgenEventsThroughEdffeas(t *testing.T) {
	gen := buildTool(t, "edfgen")
	feas := buildTool(t, "edffeas")
	set := filepath.Join(t.TempDir(), "ev.json")
	out, err := run(t, gen, "-n", "8", "-u", "0.7", "-seed", "5", "-events", "-burst", "3", "-o", set)
	if err != nil {
		t.Fatalf("edfgen -events: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(set)
	if err != nil {
		t.Fatal(err)
	}
	// The file is the service workload schema: model next to tasks.
	var ws service.WorkloadSet
	if err := json.Unmarshal(raw, &ws); err != nil {
		t.Fatalf("generated file is not a workload set: %v\n%s", err, raw)
	}
	if ws.Workload.Kind() != "events" || ws.Workload.Len() != 8 {
		t.Fatalf("generated workload: model %s, %d tasks", ws.Workload.Kind(), ws.Workload.Len())
	}
	if err := ws.Workload.Validate(); err != nil {
		t.Fatalf("generated workload invalid: %v", err)
	}

	out, err = run(t, feas, "-events", set, "-test", "allapprox,pd")
	if err != nil {
		t.Fatalf("edffeas -events: %v\n%s", err, out)
	}
	if !strings.Contains(out, "feasible") || !strings.Contains(out, "processor-demand") {
		t.Errorf("event table output:\n%s", out)
	}

	out, err = run(t, feas, "-events", set, "-test", "allapprox,qpa", "-json")
	if err != nil {
		t.Fatalf("edffeas -events -json: %v\n%s", err, out)
	}
	var resp service.BatchResponse
	if err := json.Unmarshal([]byte(out), &resp); err != nil {
		t.Fatalf("event -json is not the batch schema: %v\n%s", err, out)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2\n%s", len(resp.Results), out)
	}
	if jr := resp.Results[0]; jr.Model != "events" || jr.Err != "" || jr.Result.Verdict == "" {
		t.Errorf("allapprox event job: %+v", jr)
	}
	// qpa has no event support: the job must carry the typed error.
	if jr := resp.Results[1]; jr.Err == "" || !strings.Contains(jr.Err, "event-stream") {
		t.Errorf("qpa event job should report the capability error: %+v", jr)
	}
}

func TestEdffeasInfeasibleExitCode(t *testing.T) {
	bin := buildTool(t, "edffeas")
	set := filepath.Join(t.TempDir(), "bad.json")
	payload := `{"tasks":[
		{"wcet":3,"deadline":4,"period":10},
		{"wcet":4,"deadline":5,"period":10},
		{"wcet":3,"deadline":6,"period":10}]}`
	if err := os.WriteFile(set, []byte(payload), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, bin, "-set", set)
	if err == nil {
		t.Fatalf("expected exit code 1 for infeasible set\n%s", out)
	}
	if !strings.Contains(out, "infeasible") {
		t.Errorf("output missing verdict:\n%s", out)
	}
}

func TestEdfgenRoundTripsThroughEdffeas(t *testing.T) {
	gen := buildTool(t, "edfgen")
	feas := buildTool(t, "edffeas")
	set := filepath.Join(t.TempDir(), "gen.json")
	if out, err := run(t, gen, "-n", "12", "-u", "0.8", "-seed", "3", "-o", set); err != nil {
		t.Fatalf("edfgen: %v\n%s", err, out)
	}
	out, err := run(t, feas, "-set", set, "-test", "allapprox")
	if err != nil {
		t.Fatalf("edffeas on generated set: %v\n%s", err, out)
	}
	if !strings.Contains(out, "feasible") {
		t.Errorf("generated U=0.8 set not feasible?\n%s", out)
	}
}

// TestEdfgenSpreadFlag pins -spread: periods land log-uniformly inside
// [tmin, tmin*10^decades] and actually cover the range (the shape that
// stresses the bounded-denominator arithmetic), and the set still
// round-trips through edffeas.
func TestEdfgenSpreadFlag(t *testing.T) {
	gen := buildTool(t, "edfgen")
	feas := buildTool(t, "edffeas")
	set := filepath.Join(t.TempDir(), "spread.json")
	if out, err := run(t, gen, "-n", "30", "-u", "0.9", "-seed", "7", "-tmin", "1000", "-spread", "4", "-o", set); err != nil {
		t.Fatalf("edfgen -spread: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(set)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		Tasks []struct {
			Period int64 `json:"period"`
		} `json:"tasks"`
	}
	if err := json.Unmarshal(raw, &parsed); err != nil {
		t.Fatalf("generated file: %v\n%s", err, raw)
	}
	if len(parsed.Tasks) != 30 {
		t.Fatalf("got %d tasks, want 30", len(parsed.Tasks))
	}
	lo, hi := parsed.Tasks[0].Period, parsed.Tasks[0].Period
	for _, task := range parsed.Tasks {
		if task.Period < 1000 || task.Period > 10_000_000 {
			t.Fatalf("period %d outside [1e3, 1e7]", task.Period)
		}
		lo, hi = min(lo, task.Period), max(hi, task.Period)
	}
	// 30 log-uniform draws over 4 decades must span most of the range;
	// a uniform draw would almost surely leave the bottom decades empty.
	if lo >= 10_000 || hi <= 1_000_000 {
		t.Errorf("periods span only [%d, %d] — not a 4-decade spread", lo, hi)
	}
	if out, err := run(t, feas, "-set", set, "-test", "pd"); err != nil {
		t.Fatalf("edffeas on spread set: %v\n%s", err, out)
	}

	// The overriding shorthand must reject impossible ranges.
	if out, err := run(t, gen, "-spread", "19"); err == nil {
		t.Fatalf("-spread 19 should overflow:\n%s", out)
	} else if !strings.Contains(out, "overflow") {
		t.Errorf("overflow message missing:\n%s", out)
	}
}

func TestEdfexpTable1(t *testing.T) {
	bin := buildTool(t, "edfexp")
	out, err := run(t, bin, "-exp", "table1", "-quiet")
	if err != nil {
		t.Fatalf("edfexp: %v\n%s", err, out)
	}
	for _, want := range []string{"Burns", "FAILED", "Gresser1", "Proc. Dem."} {
		if !strings.Contains(out, want) {
			t.Errorf("table1 output missing %q:\n%s", want, out)
		}
	}
	// CSV mode.
	out, err = run(t, bin, "-exp", "table1", "-quiet", "-csv")
	if err != nil {
		t.Fatalf("edfexp csv: %v\n%s", err, out)
	}
	if !strings.Contains(out, "name,tasks,utilization") {
		t.Errorf("csv header missing:\n%s", out)
	}
}

// TestBenchmergeGate pins the CI bench-regression gate: the first merge
// freezes the baseline, a within-threshold run passes, a slow run or an
// allocation on a 0-alloc baseline fails with exit status 2 naming the
// offender.
func TestBenchmergeGate(t *testing.T) {
	bin := buildTool(t, "benchmerge")
	out := filepath.Join(t.TempDir(), "BENCH.json")
	feed := func(t *testing.T, stdin string, args ...string) (string, error) {
		t.Helper()
		cmd := exec.Command(bin, append([]string{"-out", out}, args...)...)
		cmd.Stdin = strings.NewReader(stdin)
		b, err := cmd.CombinedOutput()
		return string(b), err
	}
	baseline := "BenchmarkHot-8  1000  100000 ns/op  0 B/op  0 allocs/op\n" +
		"BenchmarkWarm-8  500  200000 ns/op  64 B/op  4 allocs/op\n"
	if o, err := feed(t, baseline); err != nil {
		t.Fatalf("freezing baseline: %v\n%s", err, o)
	}

	// Within threshold (+10% on a 25% gate, allocs unchanged): pass.
	ok := "BenchmarkHot-8  1000  110000 ns/op  0 B/op  0 allocs/op\n" +
		"BenchmarkWarm-8  500  210000 ns/op  64 B/op  4 allocs/op\n"
	if o, err := feed(t, ok, "-gate", "25"); err != nil {
		t.Fatalf("within-threshold run failed the gate: %v\n%s", err, o)
	} else if !strings.Contains(o, "GATE PASSED") {
		t.Errorf("no pass banner:\n%s", o)
	}

	// +50% ns/op regression: fail with status 2, naming the benchmark.
	slow := "BenchmarkHot-8  1000  150000 ns/op  0 B/op  0 allocs/op\n" +
		"BenchmarkWarm-8  500  200000 ns/op  64 B/op  4 allocs/op\n"
	o, err := feed(t, slow, "-gate", "25")
	if err == nil {
		t.Fatalf("50%% regression passed the gate:\n%s", o)
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 2 {
		t.Fatalf("gate failure exit: %v", err)
	}
	if !strings.Contains(o, "BenchmarkHot") || !strings.Contains(o, "GATE FAILED") {
		t.Errorf("violation does not name the benchmark:\n%s", o)
	}

	// Any allocation on a 0-alloc baseline: fail even though ns/op is fine.
	// The row breaks its 0-byte baseline too, and the summary counts it
	// once.
	leaky := "BenchmarkHot-8  1000  100000 ns/op  16 B/op  1 allocs/op\n" +
		"BenchmarkWarm-8  500  200000 ns/op  64 B/op  4 allocs/op\n"
	if o, err := feed(t, leaky, "-gate", "25"); err == nil {
		t.Fatalf("allocation on 0-alloc baseline passed the gate:\n%s", o)
	} else if !strings.Contains(o, "0-alloc baseline") || !strings.Contains(o, "0-byte baseline") {
		t.Errorf("alloc violation message:\n%s", o)
	} else if !strings.Contains(o, "GATE FAILED: 1 of 2 benchmarks") {
		t.Errorf("the summary does not count one failed row of two:\n%s", o)
	}

	// A fractional allocation amortized below one op shows 0 allocs/op
	// but non-zero B/op: the 0-byte baseline must still catch it.
	amortized := "BenchmarkHot-8  1000  100000 ns/op  1 B/op  0 allocs/op\n" +
		"BenchmarkWarm-8  500  200000 ns/op  64 B/op  4 allocs/op\n"
	if o, err := feed(t, amortized, "-gate", "25"); err == nil {
		t.Fatalf("bytes on 0-byte baseline passed the gate:\n%s", o)
	} else if !strings.Contains(o, "0-byte baseline") {
		t.Errorf("byte violation message:\n%s", o)
	}

	// The gate must not have clobbered the frozen baseline.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Baseline struct {
			Benchmarks map[string]struct {
				NsPerOp float64 `json:"ns_per_op"`
			} `json:"benchmarks"`
		} `json:"baseline"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if got := f.Baseline.Benchmarks["BenchmarkHot"].NsPerOp; got != 100000 {
		t.Errorf("baseline drifted to %v ns/op", got)
	}
}

func TestEdfsimTraceAndVerdict(t *testing.T) {
	bin := buildTool(t, "edfsim")
	out, err := run(t, bin, "-example", "gap", "-horizon", "100000", "-trace")
	if err != nil {
		t.Fatalf("edfsim: %v\n%s", err, out)
	}
	for _, want := range []string{"no deadline miss", "timer_interrupt", "feasible"} {
		if !strings.Contains(out, want) {
			t.Errorf("edfsim output missing %q:\n%s", want, out)
		}
	}
}
