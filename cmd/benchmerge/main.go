// Command benchmerge turns `go test -bench` output into a committed JSON
// trend file. It reads benchmark result lines from stdin and merges them
// into -out:
//
//	go test -bench . -benchmem ./internal/core/ | benchmerge -out BENCH_core.json
//
// The file keeps two sections. "baseline" is written only when the file
// does not yet contain one — it freezes the numbers of the first run so
// later runs can be compared against it. "current" is replaced on every
// invocation. -reset-baseline overwrites the baseline too, for
// re-anchoring after intentional performance changes.
//
// -gate pct turns the merge into a CI regression gate: after writing the
// file, every benchmark present in both sections is compared and the
// tool exits with status 2 when any current ns/op exceeds its frozen
// baseline by more than pct percent. Allocations gate harder: a
// benchmark whose baseline is 0 allocs/op fails on ANY allocation, and a
// 0 B/op baseline fails on ANY bytes (catching fractional allocations
// that amortize below one per op and round allocs/op down to zero); both
// checks are machine-independent, so they are stable across runner
// hardware. A non-zero alloc baseline fails past the same pct threshold.
// Wall-clock comparisons assume the baseline was frozen on comparable
// hardware — after a machine change, re-anchor with -reset-baseline.
//
// Only lines of the canonical benchmark form are consumed; everything
// else (PASS, ok, custom metrics on separate lines) is echoed to stderr
// untouched so the tool can sit at the end of a pipe without hiding the
// test outcome.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measured cost.
type Metrics struct {
	// N is the number of iterations the benchmark ran.
	N int64 `json:"n"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present when -benchmem was set.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Extra carries custom b.ReportMetric values (unit -> value).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Section is one snapshot of every benchmark.
type Section struct {
	Benchmarks map[string]Metrics `json:"benchmarks"`
}

// File is the on-disk layout of BENCH_core.json.
type File struct {
	Schema   string   `json:"schema"`
	Baseline *Section `json:"baseline,omitempty"`
	Current  *Section `json:"current,omitempty"`
}

// benchLine matches "BenchmarkName-8  123  456 ns/op  [metrics...]".
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// metricPair matches "12.5 unit" fragments of a benchmark line.
var metricPair = regexp.MustCompile(`([0-9.eE+-]+)\s+([^\s]+)`)

func main() {
	out := flag.String("out", "BENCH_core.json", "JSON trend file to update")
	reset := flag.Bool("reset-baseline", false, "overwrite the baseline section too")
	gate := flag.Float64("gate", 0, "fail (exit 2) when any current ns/op or allocs/op regresses more than this percentage vs the frozen baseline")
	flag.Parse()

	parsed, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmerge:", err)
		os.Exit(1)
	}
	if len(parsed.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchmerge: no benchmark lines on stdin")
		os.Exit(1)
	}
	merged, err := merge(*out, parsed, *reset)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmerge:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchmerge: wrote %d benchmarks to %s\n", len(parsed.Benchmarks), *out)
	if *gate > 0 {
		violations, failed, checked := gateCheck(merged, *gate)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "benchmerge: GATE:", v)
		}
		if len(violations) > 0 {
			fmt.Fprintf(os.Stderr, "benchmerge: GATE FAILED: %d of %d benchmarks regressed more than %g%% vs the frozen baseline\n",
				failed, checked, *gate)
			os.Exit(2)
		}
		if checked == 0 {
			fmt.Fprintln(os.Stderr, "benchmerge: GATE: no benchmark exists in both baseline and current — nothing was checked")
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "benchmerge: GATE PASSED: %d benchmarks within %g%% of baseline\n", checked, *gate)
	}
}

// gateCheck compares current against baseline. Wall-clock regressions
// past pct percent fail; allocation regressions fail past the same
// threshold, except a 0-alloc baseline which fails on any allocation at
// all (the 0-alloc hot-path contract is exact, and allocation counts do
// not vary with runner hardware the way nanoseconds do). failed counts
// the benchmarks with at least one violation, of the checked ones.
func gateCheck(f *File, pct float64) (violations []string, failed, checked int) {
	if f.Baseline == nil || f.Current == nil {
		return []string{"trend file is missing a baseline or current section"}, 0, 0
	}
	names := make([]string, 0, len(f.Current.Benchmarks))
	for name := range f.Current.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base, ok := f.Baseline.Benchmarks[name]
		if !ok {
			continue // new benchmark: nothing frozen to compare against
		}
		cur := f.Current.Benchmarks[name]
		checked++
		before := len(violations)
		if base.NsPerOp > 0 {
			if excess := 100 * (cur.NsPerOp - base.NsPerOp) / base.NsPerOp; excess > pct {
				violations = append(violations, fmt.Sprintf(
					"%s: %.0f ns/op is %.1f%% above the baseline %.0f ns/op (threshold %g%%)",
					name, cur.NsPerOp, excess, base.NsPerOp, pct))
			}
		}
		// A fractional allocation amortized below one op rounds allocs/op
		// down to 0 but still surfaces as bytes: a 0-byte baseline failing
		// on any bytes at all closes that blind spot with the same exact,
		// hardware-independent contract as the 0-alloc check.
		if base.BytesPerOp != nil && cur.BytesPerOp != nil {
			if b, c := *base.BytesPerOp, *cur.BytesPerOp; b == 0 && c > 0 {
				violations = append(violations, fmt.Sprintf(
					"%s: %.0f B/op on a frozen 0-byte baseline", name, c))
			}
		}
		if base.AllocsPerOp != nil && cur.AllocsPerOp != nil {
			switch b, c := *base.AllocsPerOp, *cur.AllocsPerOp; {
			case b == 0 && c > 0:
				violations = append(violations, fmt.Sprintf(
					"%s: %.0f allocs/op on a frozen 0-alloc baseline", name, c))
			case b > 0 && 100*(c-b)/b > pct:
				violations = append(violations, fmt.Sprintf(
					"%s: %.0f allocs/op is %.1f%% above the baseline %.0f (threshold %g%%)",
					name, c, 100*(c-b)/b, b, pct))
			}
		}
		if len(violations) > before {
			failed++
		}
	}
	return violations, failed, checked
}

// parse consumes benchmark lines and echoes the rest to stderr.
func parse(r *os.File) (*Section, error) {
	sec := &Section{Benchmarks: make(map[string]Metrics)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		name := m[1]
		n, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("iterations of %s: %w", name, err)
		}
		met := Metrics{N: n}
		for _, pair := range metricPair.FindAllStringSubmatch(m[3], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			switch unit := pair[2]; unit {
			case "ns/op":
				met.NsPerOp = v
			case "B/op":
				met.BytesPerOp = &v
			case "allocs/op":
				met.AllocsPerOp = &v
			default:
				if met.Extra == nil {
					met.Extra = make(map[string]float64)
				}
				met.Extra[unit] = v
			}
		}
		sec.Benchmarks[name] = met
	}
	return sec, sc.Err()
}

// merge updates the trend file: current always, baseline only when absent
// (or when reset is requested). It returns the merged file for gating.
func merge(path string, parsed *Section, reset bool) (*File, error) {
	var f File
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("existing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f.Schema = "edf-bench/v1"
	if f.Baseline == nil || reset {
		f.Baseline = parsed
	}
	f.Current = parsed
	data, err := json.MarshalIndent(&f, "", "  ")
	if err != nil {
		return nil, err
	}
	return &f, os.WriteFile(path, append(data, '\n'), 0o644)
}
