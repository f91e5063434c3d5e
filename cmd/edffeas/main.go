// Command edffeas analyzes the EDF feasibility of a task set.
//
// Usage:
//
//	edffeas -set tasks.json [-test all|exact|sufficient|<name>,<name>,...]
//	        [-level N] [-example name] [-wcrt] [-slack]
//	        [-curve I] [-events stream.json] [-list]
//	        [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The task set file is JSON: {"tasks":[{"wcet":2,"deadline":8,"period":10}, ...]}
// or a bare array of tasks. Alternatively -example selects one of the
// literature sets (burns, mashin, gap, gresser1, gresser2).
//
// -test accepts any analyzer registered in the analysis engine (see -list),
// a comma-separated list of them, a parameterized "superpos(L)", or the
// group keywords all, exact and sufficient. -wcrt adds Spuri worst-case
// response times, -slack per-task WCET margins. -curve I dumps the exact
// dbf and the Devi/SuperPos(1) approximation up to interval I as CSV (the
// content of Figures 2-3 of the paper). -events analyzes a Gresser
// event-stream task set instead of a sporadic one, with every analyzer of
// the selection that supports the event model.
//
// -json emits the results as the same JSON schema the edfd service's
// POST /v1/batch returns, so scripts can consume CLI and server output
// interchangeably. It covers -events too: the jobs then carry "model":
// "events", and analyzers without event support report a per-job error,
// exactly as the service's batch endpoint would.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU
// sampled across the analysis, heap captured after it), so hot-path
// regressions can be diagnosed with `go tool pprof` without editing
// code. Both work with every mode, including -json and -events.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"

	edf "repro"
	"repro/internal/service"
)

func main() {
	// All work happens in run so deferred cleanups (profile writers) run
	// before the process exits with the verdict code.
	os.Exit(run())
}

func run() int {
	var (
		setPath = flag.String("set", "", "path to a task set JSON file")
		example = flag.String("example", "", "literature set name (burns, mashin, gap, gresser1, gresser2)")
		test    = flag.String("test", "all", "analyzers to run: registered names, comma-separated, or all|exact|sufficient")
		level   = flag.Int64("level", 3, "superposition level applied to a bare \"superpos\" in -test")
		wcrt    = flag.Bool("wcrt", false, "also report per-task worst-case response times (Spuri)")
		slack   = flag.Bool("slack", false, "also report per-task WCET slack (sensitivity analysis)")
		curve   = flag.Int64("curve", 0, "dump dbf and the SuperPos(1)/Devi approximation up to this interval as CSV (Figures 2-3 of the paper) and exit")
		events  = flag.String("events", "", "path to an event-stream task set JSON file (Gresser model)")
		list    = flag.Bool("list", false, "list the registered analyzers and exit")
		asJSON  = flag.Bool("json", false, "emit results as the edfd service's batch JSON schema")
		cpuProf = flag.String("cpuprofile", "", "write a pprof CPU profile of the analysis to this file")
		memProf = flag.String("memprofile", "", "write a pprof heap profile (after the analysis) to this file")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edffeas:", err)
		return 2
	}
	defer stopProfiles()

	if *list {
		listAnalyzers()
		return 0
	}
	if *asJSON && (*curve > 0 || *wcrt || *slack) {
		fmt.Fprintln(os.Stderr, "edffeas: -json covers the analyzer results only (not -curve/-wcrt/-slack)")
		return 2
	}

	analyzers, err := selectAnalyzers(*test, *level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edffeas:", err)
		return 2
	}

	opt := edf.Options{}

	if *events != "" {
		code, err := analyzeEvents(*events, analyzers, opt, *asJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edffeas:", err)
			return 2
		}
		return code
	}

	ts, name, err := loadSet(*setPath, *example)
	if err != nil {
		fmt.Fprintln(os.Stderr, "edffeas:", err)
		return 2
	}
	if err := ts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "edffeas:", err)
		return 2
	}

	if *curve > 0 {
		if err := dumpCurve(ts, *curve); err != nil {
			fmt.Fprintln(os.Stderr, "edffeas:", err)
			return 2
		}
		return 0
	}

	if !*asJSON {
		fmt.Printf("task set %q: %d tasks, U = %.4f\n", name, len(ts), edf.Utilization(ts))
		if b, kind, ok := edf.BestBound(ts); ok {
			fmt.Printf("feasibility bound: %d (%s)\n", b, kind)
		}
	}

	results := edf.AnalyzeBatch(context.Background(),
		[]edf.TaskSet{ts}, analyzers, opt, 0)

	if *asJSON {
		if err := emitJSON(name, results); err != nil {
			fmt.Fprintln(os.Stderr, "edffeas:", err)
			return 2
		}
		return infeasibleCode(results)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "test\tkind\tverdict\tintervals\trevisions\tfail@\twall")
	for _, r := range results {
		failAt := "-"
		if r.Result.FailureInterval > 0 {
			failAt = fmt.Sprint(r.Result.FailureInterval)
		}
		info := r.Analyzer.Info()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%s\t%s\n",
			info.Label, info.Kind, r.Result.Verdict,
			r.Result.Iterations, r.Result.Revisions, failAt, r.Wall)
	}
	tw.Flush()

	if *wcrt || *slack {
		reportPerTask(ts, *wcrt, *slack)
	}

	return infeasibleCode(results)
}

// startProfiles arms the requested pprof profiles and returns the cleanup
// that stops the CPU profile and writes the heap profile.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "edffeas: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live objects, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "edffeas: memprofile:", err)
			}
		}
	}, nil
}

// infeasibleCode mirrors the strongest verdict in the exit code:
// 0 feasible, 1 infeasible.
func infeasibleCode(results []edf.BatchResult) int {
	for _, r := range results {
		if r.Result.Verdict == edf.Infeasible {
			return 1
		}
	}
	return 0
}

// emitJSON prints the results in the edfd service's batch response
// schema (one job per analyzer, set-major order).
func emitJSON(name string, results []edf.BatchResult) error {
	out := service.BatchResponse{Results: make([]service.BatchJobJSON, len(results))}
	for i, r := range results {
		out.Results[i] = service.BatchJobJSON{
			SetIndex: r.SetIndex,
			SetName:  name,
			Model:    string(r.Workload.Kind()),
			Analyzer: r.Analyzer.Info().Name,
			Result:   service.NewResultJSON(r.Result),
			WallNS:   r.Wall.Nanoseconds(),
		}
		if r.Err != nil {
			out.Results[i].Err = r.Err.Error()
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// selectAnalyzers resolves the -test spec, applying -level to bare
// "superpos" mentions so the historical flag keeps working.
func selectAnalyzers(spec string, level int64) ([]edf.Analyzer, error) {
	fields := strings.Split(spec, ",")
	for i, f := range fields {
		if strings.EqualFold(strings.TrimSpace(f), "superpos") {
			fields[i] = fmt.Sprintf("superpos(%d)", level)
		}
	}
	return edf.ParseAnalyzers(strings.Join(fields, ","))
}

// listAnalyzers prints the registry.
func listAnalyzers() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "name\tlabel\tkind\tblocking\tevents")
	for _, a := range edf.Analyzers() {
		info := a.Info()
		fmt.Fprintf(tw, "%s\t%s\t%s\t%v\t%v\n",
			info.Name, info.Label, info.Kind, info.Blocking, info.Events)
	}
	tw.Flush()
}

// reportPerTask prints the optional WCRT / slack table.
func reportPerTask(ts edf.TaskSet, wantWCRT, wantSlack bool) {
	var wcrts, slacks []int64
	if wantWCRT {
		if r, ok := edf.WCRTAll(ts, edf.ResponseOptions{}); ok {
			wcrts = r
		} else {
			fmt.Println("worst-case response times: not available (U > 1 or cap hit)")
		}
	}
	if wantSlack {
		if s, err := edf.WCETSlack(ts, nil); err == nil {
			slacks = s
		} else {
			fmt.Println("WCET slack: not available:", err)
		}
	}
	if wcrts == nil && slacks == nil {
		return
	}
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "task\tC\tD\tT")
	if wcrts != nil {
		fmt.Fprint(tw, "\tWCRT")
	}
	if slacks != nil {
		fmt.Fprint(tw, "\tC-slack")
	}
	fmt.Fprintln(tw)
	for i, task := range ts {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d", task.Name, task.WCET, task.Deadline, task.Period)
		if wcrts != nil {
			fmt.Fprintf(tw, "\t%d", wcrts[i])
		}
		if slacks != nil {
			fmt.Fprintf(tw, "\t%d", slacks[i])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// dumpCurve prints interval, exact dbf and the SuperPos(1) approximation
// (Devi's demand line, Figures 2 and 3 of the paper) at every demand step
// up to the given interval, as CSV for plotting.
func dumpCurve(ts edf.TaskSet, upTo int64) error {
	fmt.Println("interval,dbf,devi_approx")
	prev := int64(-1)
	emit := func(I int64) {
		if I == prev || I > upTo {
			return
		}
		prev = I
		approx := 0.0
		for _, t := range ts {
			if I >= t.Deadline {
				approx += float64(t.WCET) + float64(I-t.Deadline)*t.UtilizationFloat()
			}
		}
		fmt.Printf("%d,%d,%.4f\n", I, edf.Dbf(ts, I), approx)
	}
	emit(0)
	// Walk every job deadline <= upTo in ascending order.
	for {
		next := int64(-1)
		for _, t := range ts {
			d := t.Deadline
			if prev >= d {
				k := (prev-d)/t.Period + 1
				d = t.Deadline + k*t.Period
			}
			if d <= upTo && (next == -1 || d < next) {
				next = d
			}
		}
		if next == -1 {
			break
		}
		emit(next)
	}
	emit(upTo)
	return nil
}

// analyzeEvents runs the selection on an event-stream task set file
// through the workload batch runner and returns the process exit code.
// The table view skips analyzers without event support; the JSON view
// reports them as per-job errors, exactly as the service's batch endpoint
// would.
func analyzeEvents(path string, analyzers []edf.Analyzer, opt edf.Options, asJSON bool) (int, error) {
	tasks, name, err := edf.LoadEventTasks(path)
	if err != nil {
		return 0, err
	}
	results := edf.AnalyzeWorkloads(context.Background(),
		[]edf.Workload{edf.EventWorkload(tasks)}, analyzers, opt, 0)
	if asJSON {
		if err := emitJSON(name, results); err != nil {
			return 0, err
		}
		return infeasibleCode(results), nil
	}
	fmt.Printf("event task set %q: %d tasks\n", name, len(tasks))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "test\tverdict\tintervals\trevisions")
	ran := 0
	for _, r := range results {
		if r.Err != nil {
			continue // no event-stream support
		}
		ran++
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n",
			r.Analyzer.Info().Label, r.Result.Verdict, r.Result.Iterations, r.Result.Revisions)
	}
	if ran == 0 {
		return 0, fmt.Errorf("none of the selected analyzers supports event streams")
	}
	if err := tw.Flush(); err != nil {
		return 0, err
	}
	return infeasibleCode(results), nil
}

func loadSet(path, example string) (edf.TaskSet, string, error) {
	switch {
	case path != "" && example != "":
		return nil, "", fmt.Errorf("use either -set or -example, not both")
	case path != "":
		ts, name, err := edf.LoadTaskSet(path)
		if name == "" {
			name = path
		}
		return ts, name, err
	case example != "":
		ex, ok := edf.ExampleByName(example)
		if !ok {
			return nil, "", fmt.Errorf("unknown example %q", example)
		}
		return ex.Set, ex.Name, nil
	default:
		return nil, "", fmt.Errorf("one of -set or -example is required")
	}
}
