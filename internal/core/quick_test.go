package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

// setFromSeed derives a random small task set from a quick.Check seed.
func setFromSeed(seed int64) model.TaskSet {
	return randomSmallSet(rand.New(rand.NewSource(seed)))
}

// TestQuickExactTestsAgree is the quick.Check form of the central
// invariant: all exact tests return the same verdict on any input.
func TestQuickExactTestsAgree(t *testing.T) {
	f := func(seed int64) bool {
		ts := setFromSeed(seed)
		pd := ProcessorDemand(ts, Options{}).Verdict
		return QPA(ts, Options{}).Verdict == pd &&
			DynamicError(ts, Options{}).Verdict == pd &&
			AllApprox(ts, Options{}).Verdict == pd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickSuperPosMonotone: raising the level never turns acceptance into
// rejection.
func TestQuickSuperPosMonotone(t *testing.T) {
	f := func(seed int64, rawLevel uint8) bool {
		ts := setFromSeed(seed)
		level := int64(rawLevel%6) + 1
		lo := SuperPos(ts, level, Options{}).Verdict
		hi := SuperPos(ts, level+1, Options{}).Verdict
		if lo == Feasible && hi != Feasible {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestQuickIterationsPositive: every definite verdict reports at least one
// checked interval (the effort metric never degenerates).
func TestQuickIterationsPositive(t *testing.T) {
	f := func(seed int64) bool {
		ts := setFromSeed(seed)
		for _, r := range []Result{
			ProcessorDemand(ts, Options{}),
			DynamicError(ts, Options{}),
			AllApprox(ts, Options{}),
		} {
			if r.Verdict.Definite() && r.Iterations < 0 {
				return false
			}
			if r.Verdict == Infeasible && r.Iterations == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// FuzzVerdictAgreement feeds arbitrary task parameters to the exact tests
// and requires agreement; `go test` runs the seed corpus, `go test -fuzz`
// explores further.
func FuzzVerdictAgreement(f *testing.F) {
	f.Add(int64(1), int64(2), int64(3), int64(5), int64(8), int64(13))
	f.Add(int64(10), int64(10), int64(10), int64(1), int64(1), int64(1))
	f.Add(int64(3), int64(4), int64(10), int64(7), int64(8), int64(9))
	f.Fuzz(func(t *testing.T, c1, d1, t1, c2, d2, t2 int64) {
		norm := func(c, d, tt int64) (model.Task, bool) {
			c = c%50 + 1
			tt = tt%60 + 1
			d = d%60 + 1
			if c < 1 || tt < 1 || d < c {
				return model.Task{}, false
			}
			return model.Task{WCET: c, Deadline: d, Period: tt}, true
		}
		ta, okA := norm(c1, d1, t1)
		tb, okB := norm(c2, d2, t2)
		if !okA || !okB {
			t.Skip()
		}
		ts := model.TaskSet{ta, tb}
		pd := ProcessorDemand(ts, Options{}).Verdict
		for name, v := range map[string]Verdict{
			"qpa":     QPA(ts, Options{}).Verdict,
			"dynamic": DynamicError(ts, Options{}).Verdict,
			"all":     AllApprox(ts, Options{}).Verdict,
		} {
			if v != pd {
				t.Fatalf("%s=%v pd=%v for %v", name, v, pd, ts)
			}
		}
	})
}
