// Admission: online admission control for a mixed-criticality runtime.
//
// Requests to add a sporadic task stream arrive one by one; each request is
// admitted only if the resulting task set stays EDF-feasible. The paper's
// motivation for fast exact tests is exactly this use case: a sufficient
// test (Devi) rejects too many profitable requests at high utilization, the
// classic exact test (processor demand) is too slow for an admission path,
// and the cheap-first cascade gives the exact answer at near-Devi cost.
//
// The admission path runs through edf.Admission, the same concurrency-safe
// controller behind the edfd service's session endpoints: propose stages a
// task if the grown set stays feasible, commit makes it permanent, and
// rollback turns a group of proposals into an all-or-nothing transaction.
package main

import (
	"fmt"
	"math/rand"

	edf "repro"
)

func main() {
	rng := rand.New(rand.NewSource(7))

	// The production admitter: exact cheap-first verdicts, O(1)
	// utilization overload gate, transactional staging.
	controller, err := edf.NewAdmission(edf.AdmissionConfig{})
	if err != nil {
		panic(err)
	}

	// Transactional admission first: a burst group lands only as a whole.
	// Each member alone is admissible, but the third overloads the short
	// 12-unit deadline window, so the controller rolls the whole group
	// back — no partial burst is left behind.
	staged := 0
	for i := range 3 {
		out, err := controller.Propose(edf.Task{
			Name: fmt.Sprintf("burst-%d", i), WCET: 5, Deadline: 12, Period: 100,
		})
		if err != nil {
			panic(err)
		}
		if !out.Admitted {
			break
		}
		staged++
	}
	if staged == 3 {
		controller.Commit()
		fmt.Println("burst group of 3 admitted atomically")
	} else {
		dropped := controller.Rollback().Moved
		fmt.Printf("burst group rejected at member %d; rolled back %d staged task(s)\n\n",
			staged+1, dropped)
	}

	type tally struct {
		admitted, rejected int
		intervals          int64
	}
	var devi, capped, cascade tally

	fmt.Println("online admission of 60 task requests (exact vs sufficient policies)")
	fmt.Println()

	for req := range 60 {
		t := randomRequest(rng, req)
		accepted, _, _ := controller.Snapshot()
		candidate := append(accepted.Tasks, t)

		// Policy 1: Devi (what a sufficient-test-based admitter would do).
		dr := edf.Devi(candidate)
		devi.intervals += dr.Iterations
		if dr.Verdict == edf.Feasible {
			devi.admitted++
		} else {
			devi.rejected++
		}

		// Policy 2: dynamic test with a strict level cap: bounded latency,
		// still far better acceptance than Devi.
		cr := edf.DynamicError(candidate, edf.Options{MaxLevel: 8})
		capped.intervals += cr.Iterations
		if cr.Verdict == edf.Feasible {
			capped.admitted++
		} else {
			capped.rejected++
		}

		// Policy 3 actually admits: the controller's cascade verdict.
		out, err := controller.Propose(t)
		if err != nil {
			panic(err)
		}
		cascade.intervals += out.Result.Iterations
		if out.Admitted {
			cascade.admitted++
			controller.Commit() // online admission: each accepted task is final
		} else {
			cascade.rejected++
		}
	}

	committed, _, util := controller.Snapshot()
	fmt.Printf("final task set: %d tasks, utilization %.1f%%\n\n", committed.Len(), 100*util)
	fmt.Printf("%-22s %9s %9s %16s\n", "policy", "admitted", "rejected", "total intervals")
	fmt.Printf("%-22s %9d %9d %16d\n", "devi (sufficient)", devi.admitted, devi.rejected, devi.intervals)
	fmt.Printf("%-22s %9d %9d %16d\n", "dynamic, level<=8", capped.admitted, capped.rejected, capped.intervals)
	fmt.Printf("%-22s %9d %9d %16d\n", "cascade (exact)", cascade.admitted, cascade.rejected, cascade.intervals)

	// Show that the admitted configuration really holds up in a replay.
	final, _, _ := controller.Snapshot()
	horizon, _ := edf.SimHorizon(final.Tasks)
	rep, err := edf.Simulate(final.Tasks, edf.SimOptions{Horizon: horizon})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nreplay over %d time units: %d jobs, deadline miss: %v\n",
		rep.EndTime, rep.JobsReleased, rep.Missed)
}

// randomRequest models arriving workload: mostly relaxed tasks with an
// occasional tight-deadline burst handler (the shape Devi's test is weakest
// on).
func randomRequest(rng *rand.Rand, id int) edf.Task {
	T := int64(1000 * (1 + rng.Intn(100)))
	u := 0.01 + 0.04*rng.Float64()
	C := max(int64(u*float64(T)), 1)
	D := T
	if rng.Intn(4) == 0 { // tight deadline: burst handler
		D = max(4*C, T/20)
		if D > T {
			D = T
		}
	}
	return edf.Task{
		Name: fmt.Sprintf("req-%02d", id), WCET: C, Deadline: D, Period: T,
	}
}
