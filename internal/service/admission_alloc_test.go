package service

// Allocation regression for the admission hot loop: with the
// session's task buffer, the fixed-point utilization gate and the
// per-controller Scratch, a ProposeBatch decision may allocate only a
// small constant (outcome slice, cascade closures, Devi's sorted copy) —
// never per-session-size slices or big.Rat chains.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
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
	// Warm the task buffer and scratch to steady-state capacity.
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

// TestProposeCommitAllocs: a commit moves the session buffer's committed
// boundary instead of copying the committed tasks, so a propose-and-commit
// cycle on a 1000-task session allocates nothing proportional to the
// session. The proposal is a light task the certificate accepts; proposing
// the same task each time adds no anchor points, and a burst of proposals
// rolled back first leaves the task buffer room for every cycle, so the
// only growth a growing session needs, the buffer's amortized doubling,
// stays out of the measurement.
func TestProposeCommitAllocs(t *testing.T) {
	periods := []int64{1000, 2000, 5000, 10000, 20000, 50000, 100000}
	seed := make(model.TaskSet, 0, 1000)
	for i := range 1000 {
		p := periods[i%len(periods)]
		seed = append(seed, model.Task{WCET: max(p/2000, 1), Deadline: p, Period: p})
	}
	adm, err := NewAdmission(AdmissionConfig{Seed: workload.NewSporadic(seed)})
	if err != nil {
		t.Fatal(err)
	}
	light := workload.SporadicTask(model.Task{WCET: 1, Deadline: 500000, Period: 1000000})
	cycle := func() {
		out, err := adm.ProposeTask(light)
		if err != nil || !out.Admitted || out.Path != obs.PathFast {
			panic(fmt.Sprintf("light proposal: %+v, %v", out, err))
		}
		adm.Commit()
	}
	const runs = 100
	burst := make([]workload.Task, runs+1)
	for i := range burst {
		burst[i] = light
	}
	if _, err := adm.ProposeBatch(burst); err != nil {
		t.Fatal(err)
	}
	adm.Rollback()
	cycle()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		cycle()
	}
	runtime.ReadMemStats(&after)
	mallocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d propose+commit cycles on a %d-task session: %d allocations, %d bytes",
		runs, len(seed), mallocs, bytes)
	if mallocs != 0 {
		t.Fatalf("%d propose+commit cycles allocated %d times (%d bytes), want 0", runs, mallocs, bytes)
	}
}

// TestSessionStateAllocs reads a 1000-task session's state, as every
// session open and every GET /v1/sessions/{id} does, with a pending task
// staged: the reply carries counts, the utilization and the analyzer's
// name, so building it allocates nothing, however large the session.
func TestSessionStateAllocs(t *testing.T) {
	seed := make(model.TaskSet, 0, 1000)
	for i := range 1000 {
		p := int64(1000 * (i%50 + 1))
		seed = append(seed, model.Task{WCET: 1, Deadline: p, Period: p})
	}
	adm, err := NewAdmission(AdmissionConfig{Seed: workload.NewSporadic(seed)})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := adm.Propose(model.Task{WCET: 1, Deadline: 1000, Period: 1000}); err != nil || !out.Admitted {
		t.Fatalf("proposal: %+v, %v", out, err)
	}
	srv := &Server{}
	if st := srv.sessionState("s", adm); st.Committed != 1000 || st.Pending != 1 {
		t.Fatalf("state %+v, want 1000 committed and 1 pending", st)
	}
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		srv.sessionState("s", adm)
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 0 {
		t.Errorf("sessionState on a %d-task session allocated %d bytes per call, want 0", len(seed), perCall)
	}
}
