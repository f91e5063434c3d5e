package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
)

// progress writes a line to w when w is non-nil.
func progress(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// mustAnalyzers resolves experiment analyzer names against the engine
// registry; the names come from experiment configs and default to builtin
// analyzers, so a miss is a configuration error.
func mustAnalyzers(names []string) []engine.Analyzer {
	return engine.MustParse(strings.Join(names, ","))
}

// CheckAnalyzers validates an experiment analyzer override before it
// reaches the experiment: every name must resolve in the engine registry,
// needEvents requires event-stream support (the burst experiment), and
// needExact requires at least one exact analyzer to serve as the
// feasibility reference. Callers pass the registry's canonical names (one
// analyzer per entry, no group keywords).
func CheckAnalyzers(names []string, needEvents, needExact bool) error {
	if len(names) == 0 {
		return nil // defaults apply
	}
	exact := false
	for _, name := range names {
		a, ok := engine.Get(name)
		if !ok {
			return fmt.Errorf("experiments: unknown analyzer %q", name)
		}
		if needEvents && !a.Info().Events {
			return fmt.Errorf("experiments: analyzer %q has no event-stream support", name)
		}
		if a.Info().Kind == engine.Exact {
			exact = true
		}
	}
	if needExact && !exact {
		return fmt.Errorf("experiments: analyzer set %v has no exact feasibility reference", names)
	}
	return nil
}

// analyzeSets fans every (set x analyzer) job out over the engine's
// bounded worker pool with default options and returns the results
// grouped per set, in analyzer order. Ordering is deterministic
// regardless of parallelism.
func analyzeSets(sets []model.TaskSet, analyzers []engine.Analyzer) [][]core.Result {
	return engine.RunSets(context.Background(), sets, analyzers, core.Options{}, engine.RunOptions{})
}

// EffortStat is the aggregated effort of one analyzer over a bucket of
// task sets, in the paper's metric (checked test intervals).
type EffortStat struct {
	// Analyzer is the registry name.
	Analyzer string
	// Avg is the mean number of checked intervals.
	Avg float64
	// Max is the maximum number of checked intervals.
	Max int64
}

// effortStats zips analyzer names with their accumulated stats.
func effortStats(names []string, s []stats) []EffortStat {
	out := make([]EffortStat, len(names))
	for i, name := range names {
		out[i] = EffortStat{Analyzer: name, Avg: s[i].Mean(), Max: s[i].Max()}
	}
	return out
}

// effortByName finds one analyzer's stat in a row's efforts.
func effortByName(efforts []EffortStat, name string) (EffortStat, bool) {
	for _, e := range efforts {
		if e.Analyzer == name {
			return e, true
		}
	}
	return EffortStat{}, false
}

// renderEffortSummary formats per-analyzer "name(avg=...,max=...)" pairs
// for progress lines.
func renderEffortSummary(efforts []EffortStat) string {
	parts := make([]string, len(efforts))
	for i, e := range efforts {
		parts[i] = fmt.Sprintf("%s(avg=%.0f,max=%d)", e.Analyzer, e.Avg, e.Max)
	}
	return strings.Join(parts, " ")
}

// stats accumulates max and mean of an iteration count series.
type stats struct {
	n   int64
	sum float64
	max int64
}

func (s *stats) add(v int64) {
	s.n++
	s.sum += float64(v)
	s.max = max(s.max, v)
}

// Mean returns the average, 0 for an empty series.
func (s *stats) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

// Max returns the maximum, 0 for an empty series.
func (s *stats) Max() int64 { return s.max }

// rngFor derives a deterministic sub-generator for an experiment stage.
func rngFor(seed int64, stage int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stage))
}
