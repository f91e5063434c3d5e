package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/taskgen"
)

// Fig1Config parameterizes the acceptance-rate experiment of Figure 1.
type Fig1Config struct {
	// SetsPerPoint is the number of random task sets per utilization point.
	SetsPerPoint int
	// UtilPercents are the evaluated utilization points (x-axis).
	UtilPercents []int
	// Levels are the SuperPos levels between Devi (level 1) and the exact
	// processor demand test.
	Levels []int64
	// NMin, NMax bound the task-set size.
	NMin, NMax int
	// GapMean is the average deadline gap.
	GapMean float64
	// PeriodMin, PeriodMax bound the periods.
	PeriodMin, PeriodMax int64
	// Seed makes the run reproducible.
	Seed int64
	// Progress, when non-nil, receives per-point progress lines.
	Progress io.Writer
}

// withDefaults fills unset fields with the repository defaults (a scaled
// down but shape-preserving version of the paper's setup).
func (c Fig1Config) withDefaults() Fig1Config {
	if c.SetsPerPoint == 0 {
		c.SetsPerPoint = 500
	}
	if len(c.UtilPercents) == 0 {
		for p := 70; p <= 100; p += 2 {
			c.UtilPercents = append(c.UtilPercents, p)
		}
	}
	if len(c.Levels) == 0 {
		c.Levels = []int64{2, 3, 4, 5, 6, 7, 8, 9, 10}
	}
	if c.NMin == 0 {
		c.NMin = 5
	}
	if c.NMax == 0 {
		c.NMax = 100
	}
	if c.GapMean == 0 {
		c.GapMean = 0.30
	}
	if c.PeriodMin == 0 {
		c.PeriodMin = 1000
	}
	if c.PeriodMax == 0 {
		c.PeriodMax = 100000
	}
	return c
}

// analyzers builds the experiment's test ladder from the engine registry:
// Devi, the configured superposition levels, and the exact processor
// demand baseline.
func (c Fig1Config) analyzers() []engine.Analyzer {
	out := []engine.Analyzer{engine.MustGet("devi")}
	for _, level := range c.Levels {
		out = append(out, engine.MustGet(fmt.Sprintf("superpos(%d)", level)))
	}
	return append(out, engine.MustGet("pd"))
}

// Fig1Point is one utilization point of Figure 1: the fraction of task sets
// each test accepts.
type Fig1Point struct {
	UtilPercent int
	// Devi, PD are the acceptance rates of the boundary tests.
	Devi, PD float64
	// SuperPos maps level -> acceptance rate.
	SuperPos map[int64]float64
}

// Fig1Result is the full curve set of Figure 1.
type Fig1Result struct {
	Config Fig1Config
	Points []Fig1Point
}

// Fig1 runs the experiment: for every utilization point it generates random
// task sets and measures which fraction Devi, each SuperPos level, and the
// exact processor demand test accept. The paper's Figure 1 shows the
// acceptance curves nesting between Devi and the exact test.
func Fig1(cfg Fig1Config) Fig1Result {
	cfg = cfg.withDefaults()
	analyzers := cfg.analyzers()
	res := Fig1Result{Config: cfg}
	for pi, pct := range cfg.UtilPercents {
		rng := rngFor(cfg.Seed, int64(pi))
		sets := make([]model.TaskSet, 0, cfg.SetsPerPoint)
		for len(sets) < cfg.SetsPerPoint {
			n := cfg.NMin + rng.Intn(cfg.NMax-cfg.NMin+1)
			gen := taskgen.Config{
				N: n, Utilization: float64(pct) / 100,
				PeriodMin: cfg.PeriodMin, PeriodMax: cfg.PeriodMax,
				GapMean: cfg.GapMean,
			}
			ts, err := taskgen.New(gen, rng)
			if err != nil {
				continue
			}
			if ts.OverUtilized() {
				continue // integer rounding pushed a 100% target over
			}
			sets = append(sets, ts)
		}

		// Accept counts per analyzer: index 0 is Devi, 1..len(Levels) the
		// superposition ladder, the last the exact baseline.
		accepts := make([]int, len(analyzers))
		for _, perSet := range analyzeSets(sets, analyzers) {
			for ai, r := range perSet {
				if r.Verdict == core.Feasible {
					accepts[ai]++
				}
			}
		}
		total := float64(len(sets))
		point := Fig1Point{
			UtilPercent: pct,
			Devi:        float64(accepts[0]) / total,
			PD:          float64(accepts[len(accepts)-1]) / total,
			SuperPos:    make(map[int64]float64, len(cfg.Levels)),
		}
		for li, level := range cfg.Levels {
			point.SuperPos[level] = float64(accepts[1+li]) / total
		}
		res.Points = append(res.Points, point)
		progress(cfg.Progress, "fig1: U=%d%% devi=%.3f pd=%.3f", pct, point.Devi, point.PD)
	}
	return res
}
