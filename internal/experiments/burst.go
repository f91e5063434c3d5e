package experiments

import (
	"io"
	"math/rand"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eventstream"
)

// BurstConfig parameterizes the event-stream extension experiment: bursty
// workloads analyzed with the same iterative tests, counting checked test
// intervals per algorithm as the burst width grows. The paper notes the
// event stream extension "leads to a higher complexity than the test by
// Devi because each element of the burst has to be handled as a separate
// element of the event stream" — this experiment quantifies that cost and
// shows it stays far below the processor demand test's.
type BurstConfig struct {
	// SetsPerPoint is the number of workloads per burst width.
	SetsPerPoint int
	// Analyzers are engine registry names with event-stream support; the
	// last exact one serves as the feasibility reference. Default:
	// superpos(1) (the Devi-equivalent level), dynamic, allapprox, pd.
	Analyzers []string
	// BurstWidths are the evaluated burst sizes (events per burst).
	BurstWidths []int
	// Periodics is the number of background periodic streams.
	Periodics int
	// Seed makes the run reproducible.
	Seed int64
	// Progress, when non-nil, receives per-point progress lines.
	Progress io.Writer
}

func (c BurstConfig) withDefaults() BurstConfig {
	if c.SetsPerPoint == 0 {
		c.SetsPerPoint = 200
	}
	if len(c.Analyzers) == 0 {
		c.Analyzers = []string{"superpos(1)", "dynamic", "allapprox", "pd"}
	}
	if len(c.BurstWidths) == 0 {
		c.BurstWidths = []int{1, 2, 4, 8, 16}
	}
	if c.Periodics == 0 {
		c.Periodics = 8
	}
	return c
}

// BurstRow is one burst width: average checked intervals per test and the
// acceptance rate of the exact reference.
type BurstRow struct {
	Width int
	Sets  int
	// Efforts holds one entry per configured analyzer, in config order.
	Efforts []EffortStat
	// Feasible is the fraction the exact reference accepts.
	Feasible float64
}

// Effort returns the width point's stat for one analyzer name.
func (r BurstRow) Effort(name string) (EffortStat, bool) {
	return effortByName(r.Efforts, name)
}

// AvgSP1 is the mean effort of the Devi-equivalent superposition level.
func (r BurstRow) AvgSP1() float64 { return r.avg("superpos(1)") }

// AvgAllAppr is the mean effort of the all-approximated test.
func (r BurstRow) AvgAllAppr() float64 { return r.avg("allapprox") }

func (r BurstRow) avg(name string) float64 {
	e, _ := r.Effort(name)
	return e.Avg
}

// BurstResult is the full table.
type BurstResult struct {
	Config BurstConfig
	Rows   []BurstRow
}

// randomBurstWorkload builds one event-driven workload: background
// periodic streams plus one bursty stream of the given width.
func randomBurstWorkload(rng *rand.Rand, periodics, width int) []eventstream.Task {
	tasks := make([]eventstream.Task, 0, periodics+1)
	// Background periodic load, ~55-65% utilization.
	for i := range periodics {
		period := int64(500 * (i + 1 + rng.Intn(4)))
		wcet := 25 + rng.Int63n(period/16)
		deadline := wcet + rng.Int63n(period-wcet+1)
		tasks = append(tasks, eventstream.Task{
			Stream:   eventstream.Periodic(period),
			WCET:     wcet,
			Deadline: deadline,
		})
	}
	// The burst: width events, tight spacing, long macro period sized so
	// the burst contributes ~15-25% utilization. The deadline leaves room
	// for the burst backlog (width jobs) to drain behind the background
	// load.
	spacing := int64(40 + rng.Int63n(40))
	wcet := int64(60 + rng.Int63n(60))
	macro := int64(width) * wcet * (4 + rng.Int63n(3))
	tasks = append(tasks, eventstream.Task{
		Stream:   eventstream.Burst(macro, width, spacing),
		WCET:     wcet,
		Deadline: 3*int64(width)*wcet + 2*spacing,
	})
	return tasks
}

// Burst runs the experiment through the registry's event-capable
// analyzers.
func Burst(cfg BurstConfig) BurstResult {
	cfg = cfg.withDefaults()
	if err := CheckAnalyzers(cfg.Analyzers, true, true); err != nil {
		panic(err) // callers with user input validate via CheckAnalyzers
	}
	analyzers := make([]engine.EventAnalyzer, 0, len(cfg.Analyzers))
	ref := -1
	for i, a := range mustAnalyzers(cfg.Analyzers) {
		analyzers = append(analyzers, a.(engine.EventAnalyzer))
		if a.Info().Kind == engine.Exact {
			ref = i // last exact analyzer is the feasibility reference
		}
	}

	res := BurstResult{Config: cfg}
	for wi, width := range cfg.BurstWidths {
		rng := rngFor(cfg.Seed, 7000+int64(wi))
		perAnalyzer := make([]stats, len(analyzers))
		feasible := 0
		sets := 0
		for sets < cfg.SetsPerPoint {
			tasks := randomBurstWorkload(rng, cfg.Periodics, width)
			refRes := analyzers[ref].AnalyzeEvents(tasks, core.Options{})
			if refRes.Verdict == core.Undecided {
				continue // U >= 1 after rounding: regenerate
			}
			sets++
			for ai, a := range analyzers {
				r := refRes
				if ai != ref {
					r = a.AnalyzeEvents(tasks, core.Options{})
				}
				perAnalyzer[ai].add(r.Iterations)
			}
			if refRes.Verdict == core.Feasible {
				feasible++
			}
		}
		row := BurstRow{
			Width: width, Sets: sets,
			Efforts:  effortStats(cfg.Analyzers, perAnalyzer),
			Feasible: float64(feasible) / float64(sets),
		}
		res.Rows = append(res.Rows, row)
		progress(cfg.Progress, "burst: width=%d feas=%.2f %s",
			width, row.Feasible, renderEffortSummary(row.Efforts))
	}
	return res
}
