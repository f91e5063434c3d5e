package service

// Allocation regression for the admission hot loop: with the cached
// candidate buffer, the fixed-point utilization gate and the
// per-controller Scratch, a ProposeBatch decision may allocate only a
// small constant (outcome slice, cascade closures, Devi's sorted copy) —
// never per-session-size slices or big.Rat chains.

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/workload"
)

// proposeBatchAllocs measures allocs per ProposeBatch+Rollback cycle for
// a batch of n candidate tasks against a session seeded with base tasks.
func proposeBatchAllocs(t *testing.T, analyzer string, n int) float64 {
	t.Helper()
	seed := make(model.TaskSet, 0, 20)
	for i := range 20 {
		p := int64(1000 * (i + 1))
		seed = append(seed, model.Task{WCET: p / 50, Deadline: p - p/10, Period: p})
	}
	adm, err := NewAdmission(AdmissionConfig{Analyzer: analyzer, Seed: workload.NewSporadic(seed)})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]workload.Task, 0, n)
	for i := range n {
		p := int64(2000 * (i + 2))
		batch = append(batch, workload.SporadicTask(model.Task{
			WCET: p / 100, Deadline: p - p/20, Period: p,
		}))
	}
	// Warm the candidate buffer and scratch to steady-state capacity.
	if _, err := adm.ProposeBatch(batch); err != nil {
		t.Fatal(err)
	}
	adm.Rollback()
	return testing.AllocsPerRun(50, func() {
		if _, err := adm.ProposeBatch(batch); err != nil {
			panic(err)
		}
		adm.Rollback()
	})
}

// TestProposeBatchAllocBounded pins the per-decision allocation budget of
// the bulk admission path.
func TestProposeBatchAllocBounded(t *testing.T) {
	for _, tc := range []struct {
		analyzer  string
		perTask   float64 // allowed allocs per proposed task
		perCycle  float64 // allowed fixed allocs per batch call
		batchSize int
	}{
		// The cascade runs liu → devi (sorted copy) → superpos → allapprox
		// per decision; everything else comes from the reused scratch.
		// Measured ~1.4 allocs/task.
		{"cascade", 3, 8, 16},
		// Superpos alone decides from the scratch only: measured ~0.4.
		{"superpos", 1, 4, 16},
	} {
		t.Run(tc.analyzer, func(t *testing.T) {
			allocs := proposeBatchAllocs(t, tc.analyzer, tc.batchSize)
			budget := tc.perTask*float64(tc.batchSize) + tc.perCycle
			if allocs > budget {
				t.Fatalf("ProposeBatch(%d tasks) allocates %.1f/cycle, budget %.1f",
					tc.batchSize, allocs, budget)
			}
			t.Log(fmt.Sprintf("ProposeBatch(%d tasks): %.1f allocs/cycle (budget %.1f)",
				tc.batchSize, allocs, budget))
		})
	}
}
