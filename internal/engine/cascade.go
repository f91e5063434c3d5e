package engine

import (
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/eventstream"
	"repro/internal/model"
)

// Cascade implements the paper's escalation strategy: run cheap sufficient
// tests first and fall through to an exact test only when none of them
// settles the verdict. On the vast majority of task sets a sufficient test
// already accepts (Figure 1), so the expected cost matches the cheapest
// test while the worst case stays exact — the same portfolio insight the
// whole paper builds on.
type Cascade struct {
	sufficient []Analyzer
	exact      Analyzer
	info       Info
}

// NewCascade builds a cascade from the given sufficient stages (tried in
// order) and the final exact stage. Nil arguments select the defaults:
// liu-layland and devi ahead of superpos(DefaultSuperPosLevel), with the
// all-approximated test as the exact authority.
func NewCascade(sufficient []Analyzer, exact Analyzer) *Cascade {
	if sufficient == nil {
		sufficient = []Analyzer{
			NewLiuLayland(),
			NewDevi(),
			NewSuperPos(DefaultSuperPosLevel),
		}
	}
	if exact == nil {
		exact = NewAllApprox()
	}
	stages := make([]string, 0, len(sufficient)+1)
	for _, a := range sufficient {
		stages = append(stages, a.Info().Name)
	}
	ex := exact.Info()
	stages = append(stages, ex.Name)
	return &Cascade{sufficient: sufficient, exact: exact, info: Info{
		Name:     "cascade",
		Label:    "cascade(" + strings.Join(stages, "→") + ")",
		Kind:     ex.Kind,
		Blocking: ex.Blocking,
		Events:   ex.Events,
	}}
}

// Info describes the cascade. It inherits the exact stage's kind,
// blocking and event support: sufficient stages that cannot handle the
// requested mode are skipped rather than consulted, so only the exact
// authority constrains what the cascade accepts. A cascade does not
// change after NewCascade, which builds the description once.
func (c *Cascade) Info() Info { return c.info }

// Analyze runs the stages cheapest-first and returns as soon as one is
// definite. Iterations, revisions and the maximum superposition level
// accumulate across every stage that ran, so the result still reports the
// paper's effort metric for the whole escalation.
func (c *Cascade) Analyze(ts model.TaskSet, opt core.Options) core.Result {
	return c.run(opt, func(a Analyzer) (core.Result, bool) {
		return a.Analyze(ts, opt), true
	})
}

// AnalyzeEvents escalates on event-driven task sets, skipping sufficient
// stages without event support.
func (c *Cascade) AnalyzeEvents(tasks []eventstream.Task, opt core.Options) core.Result {
	return c.run(opt, func(a Analyzer) (core.Result, bool) {
		ea, ok := a.(EventAnalyzer)
		if !ok {
			return core.Result{Verdict: core.Undecided}, false
		}
		return ea.AnalyzeEvents(tasks, opt), true
	})
}

// run drives the escalation with a per-stage evaluator; eval reports
// whether the stage actually ran (an analyzer without event support is
// skipped, not consulted). Stages that ran are recorded into opt.Stages
// when the caller asked for tracing.
func (c *Cascade) run(opt core.Options, eval func(Analyzer) (core.Result, bool)) core.Result {
	evalStage := func(a Analyzer) core.Result {
		if opt.Stages == nil {
			r, _ := eval(a)
			return r
		}
		start := time.Now()
		var p0 uint64
		if opt.Scratch != nil {
			p0 = opt.Scratch.ArithPromotions()
		}
		r, ran := eval(a)
		if ran {
			var promos uint64
			if opt.Scratch != nil {
				promos = opt.Scratch.ArithPromotions() - p0
			}
			opt.Stages.Record(a.Info().Name, r.Verdict.String(), r.Iterations, time.Since(start).Nanoseconds(), promos)
		}
		return r
	}
	var spent core.Result
	accumulate := func(r core.Result) core.Result {
		r.Iterations += spent.Iterations
		r.Revisions += spent.Revisions
		r.MaxLevel = max(r.MaxLevel, spent.MaxLevel)
		return r
	}
	for _, a := range c.sufficient {
		if opt.Blocking != nil && !a.Info().Blocking {
			continue // the guard would yield Undecided; skip straight on
		}
		r := evalStage(a)
		if r.Verdict.Definite() {
			return accumulate(r)
		}
		spent.Iterations += r.Iterations
		spent.Revisions += r.Revisions
		spent.MaxLevel = max(spent.MaxLevel, r.MaxLevel)
	}
	return accumulate(evalStage(c.exact))
}
