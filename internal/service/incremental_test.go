package service

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

func oracleRandTask(r *rand.Rand) workload.Task {
	period := int64(10 + r.Intn(2000))
	c := 1 + r.Int63n(period/3+1)
	d := c + r.Int63n(2*period)
	return workload.SporadicTask(model.Task{WCET: c, Deadline: d, Period: period})
}

func oracleRandEvent(r *rand.Rand) workload.Task {
	c := 1 + r.Int63n(60)
	et := eventstream.Task{WCET: c, Deadline: c + r.Int63n(800)}
	n := 1 + r.Intn(4)
	for i := 0; i < n; i++ {
		e := eventstream.Element{Offset: r.Int63n(300)}
		if r.Intn(6) > 0 {
			e.Cycle = 100 + r.Int63n(4000)
		}
		et.Stream = append(et.Stream, e)
	}
	return workload.EventTask(et)
}

// oracleSeed tries to find a small feasible seed workload; it returns the
// zero workload when the dice keep rolling infeasible sets.
func oracleSeed(r *rand.Rand, cascade engine.Analyzer, events bool) workload.Workload {
	for attempt := 0; attempt < 4; attempt++ {
		var w workload.Workload
		n := 1 + r.Intn(4)
		if events {
			w.Model = workload.Events
			for i := 0; i < n; i++ {
				w.Events = append(w.Events, *oracleRandEvent(r).Event)
			}
		} else {
			for i := 0; i < n; i++ {
				w.Tasks = append(w.Tasks, *oracleRandTask(r).Sporadic)
			}
		}
		res, err := engine.AnalyzeWorkload(cascade, w, core.Options{})
		if err == nil && res.Verdict == core.Feasible {
			return w
		}
	}
	return workload.Workload{}
}

// TestAdmissionIncrementalOracle replays randomized propose/commit/
// rollback sequences under both workload models and asserts every verdict
// is bit-identical to a from-scratch cascade analysis of the same
// workload — the incremental fast path must be decision-invisible.
func TestAdmissionIncrementalOracle(t *testing.T) {
	cascade, ok := engine.Get("cascade")
	if !ok {
		t.Fatal("cascade analyzer not registered")
	}
	const sequences = 260 // per model; 520 total
	var fastAccepts, escalations int64
	for _, events := range []bool{false, true} {
		for seq := 0; seq < sequences; seq++ {
			r := rand.New(rand.NewSource(int64(seq)*2 + boolInt(events)))
			cfg := AdmissionConfig{}
			if r.Intn(10) < 3 {
				cfg.Seed = oracleSeed(r, cascade, events)
			}
			if events && cfg.Seed.IsZero() {
				cfg.Seed = workload.Workload{Model: workload.Events}
			}
			adm, err := NewAdmission(cfg)
			if err != nil {
				t.Fatalf("seq %d (events=%v): NewAdmission: %v", seq, events, err)
			}
			committed := cfg.Seed.Clone()
			committed.Model = adm.Model()
			pending := workload.Workload{Model: adm.Model()}
			for op := 0; op < 30; op++ {
				switch p := r.Float64(); {
				case p < 0.70:
					var tk workload.Task
					if events {
						tk = oracleRandEvent(r)
					} else {
						tk = oracleRandTask(r)
					}
					mirror, _ := committed.Concat(pending)
					candidate, _ := mirror.Concat(taskAsWorkload(tk, adm.Model()))
					want, err := engine.AnalyzeWorkload(cascade, candidate, core.Options{})
					if err != nil {
						t.Fatalf("seq %d op %d: oracle: %v", seq, op, err)
					}
					out, err := adm.ProposeTask(tk)
					if err != nil {
						t.Fatalf("seq %d op %d: propose: %v", seq, op, err)
					}
					if out.Admitted != (want.Verdict == core.Feasible) {
						t.Fatalf("seq %d op %d (events=%v): admitted=%v but oracle verdict %s for %v",
							seq, op, events, out.Admitted, want.Verdict, candidate)
					}
					if out.Result.Verdict != want.Verdict {
						t.Fatalf("seq %d op %d (events=%v): verdict %s, oracle %s",
							seq, op, events, out.Result.Verdict, want.Verdict)
					}
					if out.Admitted {
						pending, _ = pending.Concat(taskAsWorkload(tk, adm.Model()))
					}
				case p < 0.85:
					adm.Commit()
					committed, _ = committed.Concat(pending)
					pending = workload.Workload{Model: adm.Model()}
				default:
					adm.Rollback()
					pending = workload.Workload{Model: adm.Model()}
				}
			}
			st := adm.Stats()
			fastAccepts += st.FastAccepts
			escalations += st.Escalations
		}
	}
	if fastAccepts == 0 {
		t.Fatal("no proposal ever took the incremental fast path; harness is vacuous")
	}
	if escalations == 0 {
		t.Fatal("no proposal ever escalated; harness is vacuous")
	}
	t.Logf("fast accepts: %d, escalations: %d", fastAccepts, escalations)
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func taskAsWorkload(t workload.Task, m workload.Model) workload.Workload {
	if m == workload.Events {
		return workload.Workload{Model: m, Events: []eventstream.Task{*t.Event}}
	}
	return workload.Workload{Model: m, Tasks: model.TaskSet{*t.Sporadic}}
}

// TestAdmissionNoIncremental asserts the knob really forces the full
// path: decisions stay identical, but nothing is counted as a fast
// accept.
func TestAdmissionNoIncremental(t *testing.T) {
	mk := func(noInc bool) *Admission {
		adm, err := NewAdmission(AdmissionConfig{NoIncremental: noInc})
		if err != nil {
			t.Fatal(err)
		}
		return adm
	}
	fast, full := mk(false), mk(true)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 120; i++ {
		tk := oracleRandTask(r)
		a, err := fast.ProposeTask(tk)
		if err != nil {
			t.Fatal(err)
		}
		b, err := full.ProposeTask(tk)
		if err != nil {
			t.Fatal(err)
		}
		if a.Admitted != b.Admitted || a.Result.Verdict != b.Result.Verdict {
			t.Fatalf("proposal %d: fast (%v,%s) != full (%v,%s)",
				i, a.Admitted, a.Result.Verdict, b.Admitted, b.Result.Verdict)
		}
	}
	if fs := fast.Stats(); fs.FastAccepts == 0 {
		t.Error("eligible session never used the fast path")
	}
	if fs := full.Stats(); fs.FastAccepts != 0 {
		t.Errorf("NoIncremental session counted %d fast accepts", fs.FastAccepts)
	}
}

// TestAdmissionIneligibleOptions asserts option shapes that change the
// cascade's semantics keep the fast path off.
func TestAdmissionIneligibleOptions(t *testing.T) {
	cases := []AdmissionConfig{
		{Analyzer: "superpos"},
		{Options: core.Options{MaxIterations: 10}},
		{Options: core.Options{MaxLevel: 2}},
		{Options: core.Options{Blocking: func(int64) int64 { return 0 }}},
	}
	r := rand.New(rand.NewSource(5))
	for i, cfg := range cases {
		adm, err := NewAdmission(cfg)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		for j := 0; j < 20; j++ {
			if _, err := adm.ProposeTask(oracleRandTask(r)); err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
		}
		if st := adm.Stats(); st.FastAccepts != 0 {
			t.Errorf("case %d: ineligible config counted %d fast accepts", i, st.FastAccepts)
		}
	}
	// ArithBigRat is bit-identical to exact and stays eligible.
	adm, err := NewAdmission(AdmissionConfig{Options: core.Options{Arithmetic: core.ArithBigRat}})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 40; j++ {
		if _, err := adm.ProposeTask(oracleRandTask(r)); err != nil {
			t.Fatal(err)
		}
	}
	if st := adm.Stats(); st.FastAccepts == 0 {
		t.Error("big-rat session never used the fast path")
	}
}

// TestAdmissionEligibleSpelling: eligibility follows the resolved
// analyzer, so any spelling of the cascade takes the fast path.
func TestAdmissionEligibleSpelling(t *testing.T) {
	for _, name := range []string{"cascade", "CASCADE", " Cascade "} {
		adm, err := NewAdmission(AdmissionConfig{Analyzer: name})
		if err != nil {
			t.Fatal(err)
		}
		out, err := adm.Propose(model.Task{WCET: 2, Deadline: 8, Period: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Admitted || out.Path != obs.PathFast {
			t.Errorf("analyzer %q: first proposal took path %q (admitted %v), want %q",
				name, out.Path, out.Admitted, obs.PathFast)
		}
	}
}

// TestAdmissionIncrementalRace hammers one session from many goroutines
// so the race detector sees the fast path, escalation, commit and
// rollback interleaving.
func TestAdmissionIncrementalRace(t *testing.T) {
	adm, err := NewAdmission(AdmissionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				switch p := r.Float64(); {
				case p < 0.8:
					if _, err := adm.ProposeTask(oracleRandTask(r)); err != nil {
						t.Error(err)
						return
					}
				case p < 0.9:
					adm.Commit()
				default:
					adm.Rollback()
				}
			}
		}(g)
	}
	wg.Wait()
}
