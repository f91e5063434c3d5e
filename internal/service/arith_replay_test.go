package service

import (
	"math/rand"
	"testing"

	"repro/internal/churn"
	"repro/internal/core"
	"repro/internal/numeric"
)

// TestSessionArithmeticMatchesBigRat replays churn scenarios of the
// session-churn benchmark's shape through two sessions each, one on the
// default arithmetic and one on the math/big reference, and requires
// every decision to agree: admitted, the whole result (verdict,
// iterations, failure interval, bound), path and utilization, and every
// commit and rollback. A session's escalations follow one another on one
// Scratch, whose chunk plan is rebuilt from the prefix each candidate
// shares with the last; the scenarios must include escalations whose
// candidate no chunk plan covers.
func TestSessionArithmeticMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var escalations, uncovered int
	for i := range 12 {
		sc, err := churn.Generate("replay", churn.Config{SeedTasks: 100, Ops: 100}, rng)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := NewAdmission(AdmissionConfig{Seed: sc.Seed})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewAdmission(AdmissionConfig{Seed: sc.Seed, Options: core.Options{Arithmetic: core.ArithBigRat}})
		if err != nil {
			t.Fatal(err)
		}
		// The candidate's periods in admission order: committed, then
		// pending, then the proposal.
		var periods []int64
		for _, task := range sc.Seed.Tasks {
			periods = append(periods, task.Period)
		}
		committed := len(periods)
		for j, op := range sc.Ops {
			switch op.Op {
			case churn.OpPropose:
				got, err := exact.ProposeTask(*op.Task)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.ProposeTask(*op.Task)
				if err != nil {
					t.Fatal(err)
				}
				if got.Admitted != want.Admitted || got.Result != want.Result || got.Path != want.Path || got.Utilization != want.Utilization {
					t.Fatalf("scenario %d op %d: exact %v %+v %s %v, big.Rat %v %+v %s %v", i, j,
						got.Admitted, got.Result, got.Path, got.Utilization,
						want.Admitted, want.Result, want.Path, want.Utilization)
				}
				periods = append(periods, op.Task.Sporadic.Period)
				if got.Escalated {
					escalations++
					var p numeric.Plan
					if !p.Build(periods) {
						uncovered++
					}
				}
				if !got.Admitted {
					periods = periods[:len(periods)-1]
				}
			case churn.OpCommit:
				if got, want := exact.Commit(), ref.Commit(); got != want {
					t.Fatalf("scenario %d op %d: commit %+v, big.Rat %+v", i, j, got, want)
				}
				committed = len(periods)
			case churn.OpRollback:
				if got, want := exact.Rollback(), ref.Rollback(); got != want {
					t.Fatalf("scenario %d op %d: rollback %+v, big.Rat %+v", i, j, got, want)
				}
				periods = periods[:committed]
			}
		}
	}
	if uncovered == 0 {
		t.Fatalf("none of %d escalations lacked a chunk plan: the replay misses the uncovered candidates", escalations)
	}
	t.Logf("%d escalations, %d without a chunk plan", escalations, uncovered)
}
