package engine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/workload"
)

func fpSet() model.TaskSet {
	return model.TaskSet{
		{Name: "a", WCET: 2, Deadline: 8, Period: 10},
		{Name: "b", WCET: 3, Deadline: 15, Period: 15},
	}
}

func TestFingerprintStableAndNameBlind(t *testing.T) {
	fp1, ok := Fingerprint(fpSet(), "cascade", core.Options{})
	if !ok || fp1 == "" {
		t.Fatal("fingerprint failed on a plain set")
	}
	fp2, _ := Fingerprint(fpSet(), "cascade", core.Options{})
	if fp1 != fp2 {
		t.Error("fingerprint not deterministic")
	}
	// Task names must not contribute: renaming keeps the identity.
	renamed := fpSet()
	renamed[0].Name = "renamed"
	if fp, _ := Fingerprint(renamed, "cascade", core.Options{}); fp != fp1 {
		t.Error("task name changed the fingerprint")
	}
	// Analyzer casing and whitespace are canonicalized.
	if fp, _ := Fingerprint(fpSet(), "  CASCADE ", core.Options{}); fp != fp1 {
		t.Error("analyzer spelling changed the fingerprint")
	}
}

func TestFingerprintSeparatesInputs(t *testing.T) {
	base, _ := Fingerprint(fpSet(), "cascade", core.Options{})
	seen := map[string]string{base: "base"}
	check := func(label string, ts model.TaskSet, analyzer string, opt core.Options) {
		t.Helper()
		fp, ok := Fingerprint(ts, analyzer, opt)
		if !ok {
			t.Fatalf("%s: fingerprint refused", label)
		}
		if prev, dup := seen[fp]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[fp] = label
	}

	check("analyzer", fpSet(), "allapprox", core.Options{})
	check("arithmetic", fpSet(), "cascade", core.Options{Arithmetic: core.ArithBigRat})
	check("revision order", fpSet(), "cascade", core.Options{RevisionOrder: core.ReviseLIFO})
	check("max iterations", fpSet(), "cascade", core.Options{MaxIterations: 100})
	check("max level", fpSet(), "cascade", core.Options{MaxLevel: 8})

	wcet := fpSet()
	wcet[0].WCET = 3
	check("wcet", wcet, "cascade", core.Options{})
	deadline := fpSet()
	deadline[1].Deadline = 14
	check("deadline", deadline, "cascade", core.Options{})
	extra := append(fpSet(), model.Task{WCET: 1, Deadline: 100, Period: 100})
	check("task count", extra, "cascade", core.Options{})
	swapped := fpSet()
	swapped[0], swapped[1] = swapped[1], swapped[0]
	check("task order", swapped, "cascade", core.Options{})

	// Varint field boundaries must not alias: shifting a unit of demand
	// between adjacent fields changes the identity.
	shift := model.TaskSet{{WCET: 12, Deadline: 34, Period: 100}}
	shifted := model.TaskSet{{WCET: 1, Deadline: 234, Period: 100}}
	a, _ := Fingerprint(shift, "cascade", core.Options{})
	b, _ := Fingerprint(shifted, "cascade", core.Options{})
	if a == b {
		t.Error("field boundary aliasing")
	}
}

func TestFingerprintRefusesBlocking(t *testing.T) {
	opt := core.Options{Blocking: func(int64) int64 { return 0 }}
	if fp, ok := Fingerprint(fpSet(), "cascade", opt); ok || fp != "" {
		t.Error("blocking options must not be content-addressable")
	}
	wl := workload.NewEvents(fpEvents())
	if fp, ok := WorkloadFingerprint(wl, "cascade", opt); ok || fp != "" {
		t.Error("blocking options must not be content-addressable for event workloads")
	}
}

func fpEvents() []eventstream.Task {
	return []eventstream.Task{
		{Name: "p", WCET: 2, Deadline: 8, Stream: eventstream.Periodic(10)},
		{Name: "b", WCET: 3, Deadline: 15, Stream: eventstream.Burst(15, 2, 3)},
	}
}

// TestWorkloadFingerprintPinsSporadicEncoding locks the sporadic encoding
// to its PR-2-era bytes: fingerprints handed out before the workload
// redesign must remain valid cache keys forever.
func TestWorkloadFingerprintPinsSporadicEncoding(t *testing.T) {
	const golden = "efe762d64a14e7f0a14acabe5623f54514488beba07691994fb6730c4cd71ca5"
	fp, ok := Fingerprint(fpSet(), "cascade", core.Options{})
	if !ok || fp != golden {
		t.Errorf("sporadic encoding drifted: %s, want %s", fp, golden)
	}
	// The workload wrapper must agree with the legacy entry point.
	wfp, ok := WorkloadFingerprint(workload.NewSporadic(fpSet()), "cascade", core.Options{})
	if !ok || wfp != fp {
		t.Errorf("WorkloadFingerprint(sporadic) = %s, want %s", wfp, fp)
	}
}

// TestWorkloadFingerprintDomainSeparation is the property test of the
// workload redesign: no sporadic workload may ever share a fingerprint
// with an event workload, even when both are derived from the same
// numbers, across random shapes, analyzers and options.
func TestWorkloadFingerprintDomainSeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	analyzers := []string{"cascade", "allapprox", "superpos(3)", "pd"}
	opts := []core.Options{{}, {Arithmetic: core.ArithBigRat}, {MaxIterations: 50}}
	seen := map[string]string{} // fingerprint -> "model/trial"
	for trial := range 300 {
		n := 1 + rng.Intn(6)
		ts := make(model.TaskSet, n)
		ev := make([]eventstream.Task, n)
		for i := range n {
			wcet := 1 + rng.Int63n(50)
			deadline := wcet + rng.Int63n(200)
			period := 1 + rng.Int63n(500)
			ts[i] = model.Task{WCET: wcet, Deadline: deadline, Period: period}
			// The event twin reuses the same numbers, the adversarial
			// shape for encoding collisions.
			ev[i] = eventstream.Task{WCET: wcet, Deadline: deadline,
				Stream: eventstream.Periodic(period)}
			if rng.Intn(3) == 0 {
				ev[i].Stream = eventstream.Burst(period, 1+rng.Intn(3), 1+rng.Int63n(20))
			}
		}
		analyzer := analyzers[rng.Intn(len(analyzers))]
		opt := opts[rng.Intn(len(opts))]
		sfp, ok := WorkloadFingerprint(workload.NewSporadic(ts), analyzer, opt)
		if !ok {
			t.Fatalf("trial %d: sporadic fingerprint refused", trial)
		}
		efp, ok := WorkloadFingerprint(workload.NewEvents(ev), analyzer, opt)
		if !ok {
			t.Fatalf("trial %d: event fingerprint refused", trial)
		}
		if sfp == efp {
			t.Fatalf("trial %d: sporadic and event workloads collide on %s", trial, sfp)
		}
		// A fingerprint reappearing under the other model is a domain
		// violation (same-model repeats would need identical random
		// inputs and are legitimate).
		for fp, label := range map[string]string{sfp: "sporadic", efp: "events"} {
			if prev, dup := seen[fp]; dup && prev != label {
				t.Errorf("trial %d: %s fingerprint %s already seen as %s", trial, label, fp, prev)
			}
			seen[fp] = label
		}
	}
}

// TestWorkloadFingerprintSeparatesEventInputs mirrors the sporadic
// sensitivity test on the event encoding: every identity-relevant field
// must change the fingerprint, and names must not.
func TestWorkloadFingerprintSeparatesEventInputs(t *testing.T) {
	fp := func(ev []eventstream.Task) string {
		s, ok := WorkloadFingerprint(workload.NewEvents(ev), "cascade", core.Options{})
		if !ok {
			t.Fatal("event fingerprint refused")
		}
		return s
	}
	base := fp(fpEvents())
	if fp(fpEvents()) != base {
		t.Error("event fingerprint not deterministic")
	}
	renamed := fpEvents()
	renamed[0].Name = "renamed"
	if fp(renamed) != base {
		t.Error("task name changed the event fingerprint")
	}
	seen := map[string]string{base: "base"}
	mutate := func(label string, f func(ev []eventstream.Task)) {
		t.Helper()
		ev := fpEvents()
		f(ev)
		s := fp(ev)
		if prev, dup := seen[s]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[s] = label
	}
	mutate("wcet", func(ev []eventstream.Task) { ev[0].WCET++ })
	mutate("deadline", func(ev []eventstream.Task) { ev[1].Deadline++ })
	mutate("cycle", func(ev []eventstream.Task) { ev[0].Stream[0].Cycle++ })
	mutate("offset", func(ev []eventstream.Task) { ev[1].Stream[1].Offset++ })
	mutate("element count", func(ev []eventstream.Task) {
		ev[1].Stream = append(ev[1].Stream, eventstream.Element{Cycle: 40, Offset: 7})
	})
}
