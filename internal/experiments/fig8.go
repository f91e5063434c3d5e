package experiments

import (
	"io"

	"repro/internal/model"
	"repro/internal/taskgen"
)

// Fig8Config parameterizes the effort-over-utilization experiment of
// Figure 8: task sets with utilizations between 90% and 99% (hard to test),
// sizes 5..100, average gaps of 20/30/40%.
type Fig8Config struct {
	// Sets is the total number of task sets (the paper used 18,000).
	Sets int
	// Analyzers are the engine registry names whose effort is measured
	// (default: the paper's comparison pd, dynamic, allapprox).
	Analyzers []string
	// NMin, NMax bound the task-set size.
	NMin, NMax int
	// GapMeans are the average deadline gaps the sets cycle through.
	GapMeans []float64
	// PeriodMin, PeriodMax bound the periods.
	PeriodMin, PeriodMax int64
	// Seed makes the run reproducible.
	Seed int64
	// Progress, when non-nil, receives per-bucket progress lines.
	Progress io.Writer
}

func (c Fig8Config) withDefaults() Fig8Config {
	if c.Sets == 0 {
		c.Sets = 2000
	}
	if len(c.Analyzers) == 0 {
		c.Analyzers = []string{"pd", "dynamic", "allapprox"}
	}
	if c.NMin == 0 {
		c.NMin = 5
	}
	if c.NMax == 0 {
		c.NMax = 100
	}
	if len(c.GapMeans) == 0 {
		c.GapMeans = []float64{0.20, 0.30, 0.40}
	}
	if c.PeriodMin == 0 {
		c.PeriodMin = 1000
	}
	if c.PeriodMax == 0 {
		c.PeriodMax = 100000
	}
	return c
}

// Fig8Row is one utilization percent bucket of Figure 8 (both panels:
// maximum and average iterations for each analyzer).
type Fig8Row struct {
	UtilPercent int
	Sets        int
	// Efforts holds one entry per configured analyzer, in config order.
	Efforts []EffortStat
}

// Effort returns the bucket's stat for one analyzer name.
func (r Fig8Row) Effort(name string) (EffortStat, bool) {
	return effortByName(r.Efforts, name)
}

// Fig8Result is the full table behind both panels of Figure 8.
type Fig8Result struct {
	Config Fig8Config
	Rows   []Fig8Row // one per utilization percent 90..99
}

// Fig8 runs the experiment: random task sets with utilizations uniformly
// in [90%, 99.9%] are bucketed by utilization percent; per bucket the
// maximum and average number of checked test intervals is reported for
// every configured analyzer.
func Fig8(cfg Fig8Config) Fig8Result {
	cfg = cfg.withDefaults()
	analyzers := mustAnalyzers(cfg.Analyzers)
	rng := rngFor(cfg.Seed, 8)
	sets := make([]model.TaskSet, 0, cfg.Sets)
	for len(sets) < cfg.Sets {
		n := cfg.NMin + rng.Intn(cfg.NMax-cfg.NMin+1)
		gap := cfg.GapMeans[len(sets)%len(cfg.GapMeans)]
		u := 0.90 + rng.Float64()*0.099
		ts, err := taskgen.New(taskgen.Config{
			N: n, Utilization: u,
			PeriodMin: cfg.PeriodMin, PeriodMax: cfg.PeriodMax,
			GapMean: gap,
		}, rng)
		if err != nil || ts.OverUtilized() {
			continue
		}
		if ts.UtilizationFloat() < 0.90 {
			continue
		}
		sets = append(sets, ts)
	}

	grouped := analyzeSets(sets, analyzers)

	res := Fig8Result{Config: cfg}
	for pct := 90; pct <= 99; pct++ {
		perAnalyzer := make([]stats, len(analyzers))
		n := 0
		for si, ts := range sets {
			p := int(ts.UtilizationFloat() * 100)
			if p > 99 {
				p = 99
			}
			if p != pct {
				continue
			}
			n++
			for ai := range analyzers {
				perAnalyzer[ai].add(grouped[si][ai].Iterations)
			}
		}
		row := Fig8Row{
			UtilPercent: pct,
			Sets:        n,
			Efforts:     effortStats(cfg.Analyzers, perAnalyzer),
		}
		res.Rows = append(res.Rows, row)
		progress(cfg.Progress, "fig8: U=%d%% sets=%d %s",
			pct, n, renderEffortSummary(row.Efforts))
	}
	return res
}
