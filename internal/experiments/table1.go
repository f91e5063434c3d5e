package experiments

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/examplesets"
	"repro/internal/model"
)

// table1Analyzers are the default columns of the reproduced Table 1, in
// the paper's order.
func table1Analyzers() []string {
	return []string{"devi", "dynamic", "allapprox", "pd"}
}

// Table1Cell is one analyzer column of a Table 1 row.
type Table1Cell struct {
	// Analyzer is the engine registry name.
	Analyzer string
	// Accepted reports whether the analyzer accepted the set; the paper
	// prints FAILED for sufficient analyzers that could not.
	Accepted bool
	// Iterations is the number of checked test intervals.
	Iterations int64
}

// Table1Row is one literature set of Table 1: checked test intervals per
// analyzer, plus the exact feasibility reference.
type Table1Row struct {
	Name        string
	Tasks       int
	Utilization float64
	// Cells holds one entry per analyzer, in column order.
	Cells []Table1Cell
	// Feasible is the verdict of the first exact analyzer among the
	// columns.
	Feasible bool
}

// Cell returns the row's cell for one analyzer name.
func (r Table1Row) Cell(name string) (Table1Cell, bool) {
	for _, c := range r.Cells {
		if c.Analyzer == name {
			return c, true
		}
	}
	return Table1Cell{}, false
}

// Table1Result is the reproduced Table 1.
type Table1Result struct {
	// Analyzers are the column names, in order.
	Analyzers []string
	Rows      []Table1Row
}

// Table1 reproduces the paper's Table 1 on the (surrogate) literature
// sets with the default columns (Devi, dynamic, all-approximated,
// processor demand).
func Table1() Table1Result { return Table1With(table1Analyzers()) }

// Table1With reproduces Table 1 with an arbitrary analyzer column set
// from the engine registry. At least one column must be exact so the
// feasibility reference is meaningful; callers with user-supplied names
// validate via CheckAnalyzers first.
func Table1With(names []string) Table1Result {
	if err := CheckAnalyzers(names, false, true); err != nil {
		panic(err)
	}
	analyzers := mustAnalyzers(names)
	examples := examplesets.All()
	sets := make([]model.TaskSet, len(examples))
	for i, ex := range examples {
		sets[i] = ex.Set
	}
	grouped := analyzeSets(sets, analyzers)

	exact := -1
	for ai, a := range analyzers {
		if a.Info().Kind == engine.Exact {
			exact = ai
			break
		}
	}

	res := Table1Result{Analyzers: names}
	for i, ex := range examples {
		row := Table1Row{
			Name:        ex.Name,
			Tasks:       len(ex.Set),
			Utilization: ex.Set.UtilizationFloat(),
		}
		for ai, name := range names {
			r := grouped[i][ai]
			row.Cells = append(row.Cells, Table1Cell{
				Analyzer:   name,
				Accepted:   r.Verdict == core.Feasible,
				Iterations: r.Iterations,
			})
		}
		if exact >= 0 {
			row.Feasible = grouped[i][exact].Verdict == core.Feasible
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}
