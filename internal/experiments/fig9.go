package experiments

import (
	"io"

	"repro/internal/model"
	"repro/internal/taskgen"
)

// Fig9Config parameterizes the period-ratio experiment of Figure 9: the
// effort of the tests as Tmax/Tmin grows from 100 to 1,000,000 (such high
// ratios arise when system interrupts and scheduling overhead are modelled
// as tasks). The paper used 4,000 sets per ratio.
type Fig9Config struct {
	// SetsPerRatio is the number of task sets per ratio point.
	SetsPerRatio int
	// Analyzers are the engine registry names whose effort is measured
	// (default: the paper's comparison pd, dynamic, allapprox).
	Analyzers []string
	// Ratios are the Tmax/Tmin points (x-axis).
	Ratios []int64
	// NMin, NMax bound the task-set size.
	NMin, NMax int
	// GapMin, GapMax bound the per-set average deadline gap (paper: 10-50%).
	GapMin, GapMax float64
	// UtilMin, UtilMax bound the per-set utilization (paper: 90-100%).
	UtilMin, UtilMax float64
	// PeriodMin anchors the period range: periods span
	// [PeriodMin, PeriodMin*ratio], log-uniformly.
	PeriodMin int64
	// Seed makes the run reproducible.
	Seed int64
	// Progress, when non-nil, receives per-ratio progress lines.
	Progress io.Writer
}

func (c Fig9Config) withDefaults() Fig9Config {
	if c.SetsPerRatio == 0 {
		c.SetsPerRatio = 200
	}
	if len(c.Analyzers) == 0 {
		c.Analyzers = []string{"pd", "dynamic", "allapprox"}
	}
	if len(c.Ratios) == 0 {
		c.Ratios = []int64{100, 1000, 10000, 100000, 500000, 1000000}
	}
	if c.NMin == 0 {
		c.NMin = 5
	}
	if c.NMax == 0 {
		c.NMax = 100
	}
	if c.GapMin == 0 {
		c.GapMin = 0.10
	}
	if c.GapMax == 0 {
		c.GapMax = 0.50
	}
	if c.UtilMin == 0 {
		c.UtilMin = 0.90
	}
	if c.UtilMax == 0 {
		c.UtilMax = 0.995
	}
	if c.PeriodMin == 0 {
		c.PeriodMin = 1000
	}
	return c
}

// Fig9Row is one ratio point of Figure 9 (both panels plus the average
// numbers quoted in the text).
type Fig9Row struct {
	Ratio int64
	Sets  int
	// Efforts holds one entry per configured analyzer, in config order.
	Efforts []EffortStat
}

// Effort returns the ratio point's stat for one analyzer name.
func (r Fig9Row) Effort(name string) (EffortStat, bool) {
	return effortByName(r.Efforts, name)
}

// Fig9Result is the full table behind Figure 9.
type Fig9Result struct {
	Config Fig9Config
	Rows   []Fig9Row
}

// Fig9 runs the experiment: per period ratio it generates random task sets
// with log-uniform periods spanning the ratio and measures the checked test
// intervals. The paper's headline: the processor demand test explodes with
// the ratio (tens of millions of intervals) while the new tests stay flat.
func Fig9(cfg Fig9Config) Fig9Result {
	cfg = cfg.withDefaults()
	analyzers := mustAnalyzers(cfg.Analyzers)
	res := Fig9Result{Config: cfg}
	for ri, ratio := range cfg.Ratios {
		rng := rngFor(cfg.Seed, 900+int64(ri))
		sets := make([]model.TaskSet, 0, cfg.SetsPerRatio)
		for len(sets) < cfg.SetsPerRatio {
			n := cfg.NMin + rng.Intn(cfg.NMax-cfg.NMin+1)
			u := cfg.UtilMin + rng.Float64()*(cfg.UtilMax-cfg.UtilMin)
			gap := cfg.GapMin + rng.Float64()*(cfg.GapMax-cfg.GapMin)
			ts, err := taskgen.New(taskgen.Config{
				N: n, Utilization: u,
				PeriodMin: cfg.PeriodMin, PeriodMax: cfg.PeriodMin * ratio,
				LogUniformPeriods: true,
				GapMean:           gap / 2, // per-task gaps ~ U(0, gap)
			}, rng)
			if err != nil || ts.OverUtilized() {
				continue
			}
			sets = append(sets, ts)
		}

		perAnalyzer := make([]stats, len(analyzers))
		for _, perSet := range analyzeSets(sets, analyzers) {
			for ai, r := range perSet {
				perAnalyzer[ai].add(r.Iterations)
			}
		}
		row := Fig9Row{
			Ratio:   ratio,
			Sets:    len(sets),
			Efforts: effortStats(cfg.Analyzers, perAnalyzer),
		}
		res.Rows = append(res.Rows, row)
		progress(cfg.Progress, "fig9: ratio=%d %s", ratio, renderEffortSummary(row.Efforts))
	}
	return res
}
