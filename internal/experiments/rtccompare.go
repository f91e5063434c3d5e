package experiments

import (
	"io"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/taskgen"
)

// RTCConfig parameterizes the Section 3.6 comparison: acceptance of the
// real-time-calculus style curve approximation versus Devi's test (its
// superposition equivalent SuperPos(1)) and the exact test over
// utilization.
type RTCConfig struct {
	SetsPerPoint         int
	UtilPercents         []int
	NMin, NMax           int
	GapMean              float64
	PeriodMin, PeriodMax int64
	Seed                 int64
	Progress             io.Writer
}

func (c RTCConfig) withDefaults() RTCConfig {
	if c.SetsPerPoint == 0 {
		c.SetsPerPoint = 400
	}
	if len(c.UtilPercents) == 0 {
		for p := 50; p <= 95; p += 5 {
			c.UtilPercents = append(c.UtilPercents, p)
		}
	}
	if c.NMin == 0 {
		c.NMin = 5
	}
	if c.NMax == 0 {
		c.NMax = 50
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

// RTCPoint is one utilization point of the comparison.
type RTCPoint struct {
	UtilPercent int
	RTC         float64 // acceptance of the curve approximation
	Devi        float64
	Exact       float64
}

// RTCResult is the full comparison table.
type RTCResult struct {
	Config RTCConfig
	Points []RTCPoint
}

// RTCCompare runs the comparison. Expected shape (the paper's Section 3.6
// claim): RTC acceptance <= Devi acceptance <= exact acceptance at every
// utilization, with the RTC curve dropping first.
func RTCCompare(cfg RTCConfig) RTCResult {
	cfg = cfg.withDefaults()
	// The comparison ladder, from the engine registry: the RTC curve
	// test, its superposition counterpart Devi, and the exact authority.
	analyzers := mustAnalyzers([]string{"rtc", "devi", "allapprox"})
	res := RTCResult{Config: cfg}
	for pi, pct := range cfg.UtilPercents {
		rng := rngFor(cfg.Seed, 3600+int64(pi))
		sets := make([]model.TaskSet, 0, cfg.SetsPerPoint)
		for len(sets) < cfg.SetsPerPoint {
			n := cfg.NMin + rng.Intn(cfg.NMax-cfg.NMin+1)
			ts, err := taskgen.New(taskgen.Config{
				N: n, Utilization: float64(pct) / 100,
				PeriodMin: cfg.PeriodMin, PeriodMax: cfg.PeriodMax,
				GapMean: cfg.GapMean,
			}, rng)
			if err != nil || ts.OverUtilized() {
				continue
			}
			sets = append(sets, ts)
		}
		var nRTC, nDevi, nExact int
		for _, perSet := range analyzeSets(sets, analyzers) {
			if perSet[0].Verdict == core.Feasible {
				nRTC++
			}
			if perSet[1].Verdict == core.Feasible {
				nDevi++
			}
			if perSet[2].Verdict == core.Feasible {
				nExact++
			}
		}
		total := float64(len(sets))
		point := RTCPoint{
			UtilPercent: pct,
			RTC:         float64(nRTC) / total,
			Devi:        float64(nDevi) / total,
			Exact:       float64(nExact) / total,
		}
		res.Points = append(res.Points, point)
		progress(cfg.Progress, "rtc: U=%d%% rtc=%.3f devi=%.3f exact=%.3f",
			pct, point.RTC, point.Devi, point.Exact)
	}
	return res
}
