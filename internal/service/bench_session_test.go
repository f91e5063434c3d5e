package service_test

// Session admission benchmarks, the trend suite behind `make
// bench-session` / BENCH_session.json. They measure what an online
// admission controller actually pays per decision on a large committed
// session, in both period regimes from the core suite:
//
//   - grid: round {1,2,5}·10^k periods, where one chunk covers every
//     period.
//   - spread: log-uniform periods over four decades, where a running
//     int64 fraction would overflow. The incremental decision —
//     fixed-point utilization gate, certificate, rollback — never touches
//     a fraction, so it stays allocation-free here too; the full cascade
//     computes on chunk registers, promoting to big.Rat where 1000
//     periods outgrow the chunk plan.
//
// The incremental/full pair on the same session is the headline number:
// full forces NoIncremental (every proposal re-runs the cascade over the
// whole set), incremental is the default fast path. BENCH_session.json
// records both so the speedup and the 0-alloc contract of both
// incremental rows are gated in CI. BenchmarkSessionOpen times the
// session open itself, and BenchmarkSessionEscalate one escalation.

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/churn"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/service"
	"repro/internal/workload"
)

// benchSessionPeriods is the round-period grid sets draw from.
var benchSessionPeriods = []int64{
	1000, 2000, 5000,
	10000, 20000, 50000,
	100000, 200000, 500000,
	1000000, 2000000, 5000000,
}

// benchSessionSeed builds a deterministic n-task, ~60%-utilization
// committed baseline. Deadlines equal periods so the seed is feasible by
// construction (utilization below one is sufficient for D = T); the
// proposals supply the constrained deadlines.
func benchSessionSeed(n int, grid bool, seed int64) workload.Workload {
	rng := rand.New(rand.NewSource(seed))
	period := func() int64 {
		if grid {
			return benchSessionPeriods[rng.Intn(len(benchSessionPeriods))]
		}
		lo, hi := 3.0, 7.0 // 10^3 .. 10^7
		return int64(math.Pow(10, lo+rng.Float64()*(hi-lo)))
	}
	shares := make([]float64, n)
	sum := 0.0
	for i := range shares {
		shares[i] = 0.1 + rng.Float64()
		sum += shares[i]
	}
	ts := make(model.TaskSet, 0, n)
	for i := range n {
		t := period()
		c := int64(shares[i] / sum * 0.60 * float64(t))
		if c < 1 {
			c = 1
		}
		ts = append(ts, model.Task{WCET: c, Deadline: t, Period: t})
	}
	return workload.NewSporadic(ts)
}

// BenchmarkSessionPropose is the headline online-admission benchmark:
// one ProposeTask + Rollback against a session holding 1000 committed
// tasks. The proposal is a light task a healthy session admits, so
// "incremental" measures the certificate fast path end to end (grid must
// stay 0 allocs/op) and "full" measures the same decision with
// NoIncremental — a cascade re-analysis of all 1001 tasks — the
// pre-incremental cost this PR removes.
func BenchmarkSessionPropose(b *testing.B) {
	for _, shape := range []struct {
		name string
		grid bool
	}{{"grid", true}, {"spread", false}} {
		seed := benchSessionSeed(1000, shape.grid, 1)
		for _, mode := range []struct {
			name  string
			noInc bool
		}{{"incremental", false}, {"full", true}} {
			b.Run(shape.name+"/"+mode.name, func(b *testing.B) {
				adm, err := service.NewAdmission(service.AdmissionConfig{
					Seed: seed, NoIncremental: mode.noInc,
				})
				if err != nil {
					b.Fatal(err)
				}
				light := workload.SporadicTask(model.Task{
					WCET: 1, Deadline: 500000, Period: 1000000,
				})
				// One warm-up decision sizes the certificate's fold
				// buffers, and a collection clears the seed analysis's
				// garbage, so the loop measures the steady state.
				if _, err := adm.ProposeTask(light); err != nil {
					b.Fatal(err)
				}
				adm.Rollback()
				runtime.GC()
				b.ReportAllocs()
				b.ResetTimer()
				for b.Loop() {
					out, err := adm.ProposeTask(light)
					if err != nil {
						b.Fatal(err)
					}
					if !out.Admitted {
						b.Fatal("light task rejected")
					}
					adm.Rollback()
				}
			})
		}
	}
}

// BenchmarkSessionOpen times NewAdmission, the session-open layer of
// session churn: the seed's cascade analysis, its utilization sum and
// the incremental anchor rebuild. "churn" cycles over the 100-task seeds
// of churn scenarios 1–40; "grid" opens the 1000-task round-period seed.
func BenchmarkSessionOpen(b *testing.B) {
	churnSeeds := make([]workload.Workload, 40)
	for i := range churnSeeds {
		sc, err := churn.Generate("open", churn.Config{SeedTasks: 100, Ops: 1},
			rand.New(rand.NewSource(int64(i+1))))
		if err != nil {
			b.Fatal(err)
		}
		churnSeeds[i] = sc.Seed
	}
	for _, shape := range []struct {
		name  string
		seeds []workload.Workload
	}{
		{"churn", churnSeeds},
		{"grid", []workload.Workload{benchSessionSeed(1000, true, 1)}},
	} {
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				_, err := service.NewAdmission(service.AdmissionConfig{Seed: shape.seeds[i%len(shape.seeds)]})
				if err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
	}
}

// BenchmarkSessionChurn replays one generated churn scenario per
// iteration on a fresh session: 100 committed seed tasks, 1000 mixed
// propose/commit/rollback ops with light, heavy and tight-deadline
// proposals — the macro number for sustained session churn, decision
// paths mixed in realistic proportion.
func BenchmarkSessionChurn(b *testing.B) {
	sc, err := churn.Generate("bench", churn.Config{SeedTasks: 100, Ops: 1000},
		rand.New(rand.NewSource(9)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		adm, err := service.NewAdmission(service.AdmissionConfig{Seed: sc.Seed})
		if err != nil {
			b.Fatal(err)
		}
		for i := range sc.Ops {
			switch op := &sc.Ops[i]; op.Op {
			case churn.OpPropose:
				if _, err := adm.ProposeTask(*op.Task); err != nil {
					b.Fatal(err)
				}
			case churn.OpCommit:
				adm.Commit()
			case churn.OpRollback:
				adm.Rollback()
			}
		}
	}
}

// BenchmarkSessionEscalate times one escalated proposal on a churn-shaped
// session that has committed a few tight-deadline tasks: each iteration
// proposes the next of 64 distinct tight-deadline tasks (churn's
// escalating flavor, kept where the certificate cannot vouch for them),
// so the cascade decides it, and rolls back.
// Consecutive candidates differ in their last period, as in a real
// session, so the admission's Scratch rebuilds its chunk plan from the
// shared prefix every time. "covered" opens a 124-task churn seed whose
// every candidate fits a chunk plan (0 allocs/op); "uncovered" a 140-task
// one no plan covers, where every fraction of the walks runs on math/big.
func BenchmarkSessionEscalate(b *testing.B) {
	for _, shape := range []struct {
		name    string
		tasks   int
		covered bool
	}{{"covered", 124, true}, {"uncovered", 140, false}} {
		b.Run(shape.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			sc, err := churn.Generate("escalate", churn.Config{SeedTasks: shape.tasks, Ops: 1}, rng)
			if err != nil {
				b.Fatal(err)
			}
			adm, err := service.NewAdmission(service.AdmissionConfig{Seed: sc.Seed})
			if err != nil {
				b.Fatal(err)
			}
			var periods []int64
			for _, t := range sc.Seed.Tasks {
				periods = append(periods, t.Period)
			}
			// Commit tight tasks until the cascade first rejects one, as a
			// churning session does: from then on nearly every tight task
			// escalates. Then draw until 64 have escalated; the draws size
			// every buffer, and a collection clears the set-up's garbage.
			var tight []workload.Task
			for len(tight) < 64 {
				period := 1000 + rng.Int63n(99001)
				d := period / 16
				c := d/2 + rng.Int63n(d/4+1)
				t := workload.SporadicTask(model.Task{WCET: c, Deadline: d, Period: period})
				var plan numeric.Plan
				if plan.Build(append(periods, period)) != shape.covered {
					b.Fatalf("tight task %+v: candidate plan covered = %v", *t.Sporadic, !shape.covered)
				}
				out, err := adm.ProposeTask(t)
				if err != nil {
					b.Fatal(err)
				}
				if len(tight) == 0 && out.Admitted {
					adm.Commit()
					periods = append(periods, period)
					continue
				}
				adm.Rollback()
				if out.Escalated {
					tight = append(tight, t)
				}
			}
			runtime.GC()
			b.ReportAllocs()
			b.ResetTimer()
			i := 0
			for b.Loop() {
				if _, err := adm.ProposeTask(tight[i%len(tight)]); err != nil {
					b.Fatal(err)
				}
				adm.Rollback()
				i++
			}
		})
	}
}
