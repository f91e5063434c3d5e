package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"os"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/partition"
)

// TestMain lets the test binary stand in for the benchmark binary as the
// reference process the end-to-end runs start.
func TestMain(m *testing.M) {
	if len(os.Args) == 2 && os.Args[1] == referenceFlag {
		os.Exit(serveReference(os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

// TestReferenceProbe: the reference process answers bursts with positive
// figures and exits when the probe closes.
func TestReferenceProbe(t *testing.T) {
	p, err := startProbe()
	if err != nil {
		t.Fatal(err)
	}
	s, err := p.burst()
	if cerr := p.close(); cerr != nil {
		t.Errorf("closing the probe: %v", cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !(s.cpuPerOp > 0 && s.p50 > 0) {
		t.Errorf("burst measured %+v, want positive CPU per request and p50", s)
	}
	if _, err := p.burst(); err == nil {
		t.Error("a burst after close must fail")
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program's
// metric tables in step: the runner checks that every declared metric is
// printed, and the program prints exactly its tables.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, specs[i].name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, printed []metricSpec) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(printed))
			return
		}
		for i, m := range declared {
			if m.Name != printed[i].name || m.Unit != printed[i].unit {
				t.Errorf("%s %d: %s [%s] declared, %s [%s] printed", kind, i, m.Name, m.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly in both modes with its oracle.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload's daemons")
	}
	var out, errb bytes.Buffer
	if code := run([]string{"--smoke", "--out", t.TempDir()}, &out, &errb); code != 0 {
		t.Fatalf("smoke exited %d:\n%s%s", code, out.String(), errb.String())
	}
	if got := strings.Count(out.String(), ": ok,"); got != 2*len(specs) {
		t.Errorf("%d smoke runs passed, want %d:\n%s", got, 2*len(specs), out.String())
	}
}

func TestResultLineHasExactlyTheListedMetrics(t *testing.T) {
	r := runResult{attempted: 3, metrics: metricSet{"setup_s": 0.5, "extra": 1}}
	line, err := r.json([]metricSpec{{"setup_s", "s"}})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}`
	if line != want {
		t.Errorf("result line\n got %s\nwant %s", line, want)
	}
	if _, err := r.json([]metricSpec{{"latency_p50_vs_ref", "ratio"}}); err == nil {
		t.Error("a missing metric must fail the run, not print")
	}
	r.failed = 1
	if line, _ := r.json(nil); !strings.HasPrefix(line, `{"correct":false`) {
		t.Errorf("a failed request must make the run incorrect: %s", line)
	}
}

// TestOverloadedPlatformsExceedCapacity: every fifth platform's exact
// demand stays at least overloadFactor × its capacity after the per-task
// utilization cap, mixed-speed platforms included.
func TestOverloadedPlatformsExceedCapacity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for i, wl := range partitionedWorkloads(seed, streamTimed, 60) {
			if i%5 != 2 {
				continue
			}
			floor := new(big.Rat).Mul(wl.Capacity(), new(big.Rat).SetFloat64(overloadFactor))
			if wl.Utilization().Cmp(floor) < 0 {
				t.Errorf("seed %d platform %d: demand %s below %v × capacity %s", seed, i,
					wl.Utilization().FloatString(3), overloadFactor, wl.Capacity().FloatString(0))
			}
		}
	}
}

// TestPartitionOracle: the oracle accepts the program's own answers and
// rejects an "infeasible" answer on a platform that can be placed, and a
// "feasible" answer on a platform whose demand exceeds its capacity.
func TestPartitionOracle(t *testing.T) {
	pd := engine.MustGet("pd")
	wls := partitionedWorkloads(1, streamTimed, 10)
	var placed, overloaded bool
	for i, wl := range wls {
		pl, err := partition.Place(context.Background(), wl, partition.Config{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := checkPlacement(pd, wl, pl); err != nil {
			t.Errorf("platform %d: the program's answer was refused: %v", i, err)
		}
		switch {
		case pl.Feasible && !placed:
			placed = true
			wrong := partition.Placement{Counterexample: &partition.Attempt{FailedTask: 0}}
			if checkPlacement(pd, wl, wrong) == nil {
				t.Errorf("platform %d: a wrong infeasible answer passed", i)
			}
		case !pl.Feasible && i%5 == 2 && !overloaded:
			overloaded = true
			wrong := partition.Placement{Feasible: true, Assignment: make([]int, len(wl.PartTasks))}
			if checkPlacement(pd, wl, wrong) == nil {
				t.Errorf("platform %d: a feasible answer on an overloaded platform passed", i)
			}
		}
	}
	if !placed || !overloaded {
		t.Fatalf("inputs lack a placeable (%v) or an overloaded (%v) platform", placed, overloaded)
	}
}
