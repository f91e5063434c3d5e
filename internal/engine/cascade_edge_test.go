package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/eventstream"
	"repro/internal/model"
)

// stubAnalyzer returns a fixed result and records invocations.
type stubAnalyzer struct {
	info   Info
	result core.Result
	calls  int
}

func (s *stubAnalyzer) Info() Info { return s.info }
func (s *stubAnalyzer) Analyze(model.TaskSet, core.Options) core.Result {
	s.calls++
	return s.result
}

// TestCascadeUndecidedEscalation pins the escalation contract the service
// relies on: a sufficient stage answering Undecided (e.g. a resource cap
// hit) must not end the cascade — the exact stage decides, and the
// undecided stage's effort still counts toward the total.
func TestCascadeUndecidedEscalation(t *testing.T) {
	ts := model.TaskSet{{WCET: 2, Deadline: 8, Period: 10}}
	undecided := &stubAnalyzer{
		info:   Info{Name: "stub-undecided", Kind: Sufficient},
		result: core.Result{Verdict: core.Undecided, Iterations: 5},
	}
	notAccepted := &stubAnalyzer{
		info:   Info{Name: "stub-notaccepted", Kind: Sufficient},
		result: core.Result{Verdict: core.NotAccepted, Iterations: 7},
	}
	c := NewCascade([]Analyzer{undecided, notAccepted}, nil)

	res := c.Analyze(ts, core.Options{})
	if res.Verdict != core.Feasible {
		t.Fatalf("verdict %v, want feasible from the exact stage", res.Verdict)
	}
	if undecided.calls != 1 || notAccepted.calls != 1 {
		t.Errorf("stage calls: %d, %d, want 1, 1", undecided.calls, notAccepted.calls)
	}
	// 5 + 7 undecided/not-accepted iterations plus the exact stage's own.
	if res.Iterations <= 12 {
		t.Errorf("iterations %d do not accumulate the undecided stages", res.Iterations)
	}

	// A definite sufficient answer must still short-circuit: the stages
	// after it never run.
	accepts := &stubAnalyzer{
		info:   Info{Name: "stub-accepts", Kind: Sufficient},
		result: core.Result{Verdict: core.Feasible, Iterations: 1},
	}
	tail := &stubAnalyzer{info: Info{Name: "stub-tail", Kind: Sufficient}}
	c2 := NewCascade([]Analyzer{accepts, tail}, nil)
	if res := c2.Analyze(ts, core.Options{}); res.Verdict != core.Feasible || res.Iterations != 1 {
		t.Errorf("short-circuit result %+v", res)
	}
	if tail.calls != 0 {
		t.Error("stage after a definite verdict still ran")
	}
}

// TestCascadeEventsSkipsNonEventStages pins the event path: sufficient
// stages without event support contribute Undecided (and are effectively
// skipped) rather than aborting the escalation.
func TestCascadeEventsSkipsNonEventStages(t *testing.T) {
	tasks := []eventstream.Task{
		{Stream: eventstream.Periodic(10), WCET: 2, Deadline: 8},
	}
	// liu and a stub have no event path; the exact default (allapprox)
	// does, so the cascade must still decide.
	c := NewCascade([]Analyzer{NewLiuLayland(), &stubAnalyzer{
		info:   Info{Name: "stub-no-events", Kind: Sufficient},
		result: core.Result{Verdict: core.Feasible},
	}}, nil)
	res := c.AnalyzeEvents(tasks, core.Options{})
	if res.Verdict != core.Feasible {
		t.Fatalf("event cascade verdict %v", res.Verdict)
	}
}

// TestCascadeInfoAllocs: the registered cascade describes itself without
// allocating — Info runs for every placement, every analyze request and
// every session reply — and the description names each stage in order.
func TestCascadeInfoAllocs(t *testing.T) {
	c := MustGet("cascade")
	exact := NewAllApprox().Info()
	want := Info{
		Name:     "cascade",
		Label:    "cascade(liu→devi→superpos→allapprox)",
		Kind:     exact.Kind,
		Blocking: exact.Blocking,
		Events:   exact.Events,
	}
	if got := c.Info(); got != want {
		t.Errorf("Info() = %+v, want %+v", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { _ = c.Info() }); n != 0 {
		t.Errorf("Info() allocates %v times per call, want 0", n)
	}
}
