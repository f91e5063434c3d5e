package engine

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/examplesets"
	"repro/internal/model"
	"repro/internal/sim"
)

// The simulator referees every verdict on sets small enough to
// simulate: preemptive EDF over the synchronous arrival sequence shares
// neither the demand walks nor their arithmetic with the analyzers.

// refereeMaxH caps the hyperperiod of a set taken as written.
const refereeMaxH = 100_000

// refereePeriods are the periods of drawn sets: divisors of 2520, so a
// drawn set's hyperperiod is at most 2520, and thirds, sevenths and
// ninths make exact utilization and Devi prefix ties common.
var refereePeriods = []int64{3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 35, 36, 40, 42, 45, 56, 60, 63, 70, 72, 84, 90}

// refereeSet decodes a fuzz input: six bytes per task, its WCET,
// deadline and period as big-endian uint16s, at most 16 tasks. A valid
// set whose hyperperiod is at most refereeMaxH is taken as written (the
// seeds). Otherwise the first 3–6 tasks are redrawn: the period from
// refereePeriods, the WCET in 1..3T/2n and the deadline in C..2T, which
// spreads the utilization around 0.75, mostly feasible and often tight.
func refereeSet(data []byte) (model.TaskSet, bool) {
	n := min(len(data)/6, 16)
	raw := make([][3]int64, n)
	ts := make(model.TaskSet, n)
	for i := range raw {
		for j := range raw[i] {
			raw[i][j] = int64(binary.BigEndian.Uint16(data[6*i+2*j:]))
		}
		ts[i] = model.Task{WCET: raw[i][0], Deadline: raw[i][1], Period: raw[i][2]}
	}
	if n == 0 {
		return nil, false
	}
	if h, ok := hyperperiod(ts); ok && h <= refereeMaxH && ts.Validate() == nil {
		return ts, true
	}
	if n < 3 {
		return nil, false
	}
	ts = ts[:min(n, 6)]
	for i, r := range raw[:len(ts)] {
		p := refereePeriods[r[2]%int64(len(refereePeriods))]
		c := 1 + r[0]%max(1, 3*p/(2*int64(len(ts))))
		ts[i] = model.Task{WCET: c, Deadline: c + r[1]%(2*p-c+1), Period: p}
	}
	return ts, true
}

// hyperperiod is the lcm of the periods in plain int64, ok false past
// refereeMaxH.
func hyperperiod(ts model.TaskSet) (int64, bool) {
	h := int64(1)
	for _, t := range ts {
		if t.Period <= 0 {
			return 0, false
		}
		a, b := h, t.Period
		for b != 0 {
			a, b = b, a%b
		}
		h = h / a * t.Period
		if h > refereeMaxH {
			return 0, false
		}
	}
	return h, true
}

// encodeSet is refereeSet's input for a set taken as written.
func encodeSet(ts model.TaskSet) []byte {
	var b []byte
	for _, t := range ts {
		b = binary.BigEndian.AppendUint16(b, uint16(t.WCET))
		b = binary.BigEndian.AppendUint16(b, uint16(t.Deadline))
		b = binary.BigEndian.AppendUint16(b, uint16(t.Period))
	}
	return b
}

// dbf is the demand bound function in plain int64: the work of the jobs
// released at 0, T, 2T, ... with deadline at most t.
func dbf(ts model.TaskSet, t int64) int64 {
	var sum int64
	for _, task := range ts {
		if t >= task.Deadline {
			sum += ((t-task.Deadline)/task.Period + 1) * task.WCET
		}
	}
	return sum
}

// referee checks every analyzer on ts against the simulator. For U <= 1
// the set is schedulable iff synchronous EDF meets every deadline up to
// H + Dmax; for U > 1 it is not. Every exact analyzer must agree, a
// sufficient one may accept only a schedulable set and reject as
// infeasible only an unschedulable one, and every Infeasible result
// that names a failure interval t must have dbf(t) > t.
func referee(t *testing.T, ts model.TaskSet) {
	t.Helper()
	h, ok := hyperperiod(ts)
	if !ok {
		t.Fatalf("hyperperiod of %v above %d", ts, refereeMaxH)
	}
	var demand int64 // U·H
	for _, task := range ts {
		demand += task.WCET * (h / task.Period)
	}
	schedulable := false
	if demand <= h {
		rep, err := sim.Run(ts, sim.Options{Horizon: h + ts.MaxDeadline()})
		if err != nil {
			t.Fatalf("sim: %v", err)
		}
		schedulable = !rep.Missed
	}
	check := func(name string, r core.Result) {
		t.Helper()
		if r.Verdict == core.Infeasible && r.FailureInterval > 0 {
			if d := dbf(ts, r.FailureInterval); d <= r.FailureInterval {
				t.Fatalf("%s on %v: infeasible at t = %d, but dbf(t) = %d", name, ts, r.FailureInterval, d)
			}
		}
	}
	for _, name := range []string{"pd", "qpa", "allapprox", "dynamic", "response", "cascade"} {
		r := MustGet(name).Analyze(ts, core.Options{})
		check(name, r)
		if name == "response" && demand > h && r.Verdict == core.Undecided {
			continue // response-time analysis does not apply above U = 1
		}
		if want := core.Infeasible; schedulable && r.Verdict != core.Feasible || !schedulable && r.Verdict != want {
			t.Fatalf("%s on %v: %s, simulator schedulable = %t (U·H = %d, H = %d)", name, ts, r.Verdict, schedulable, demand, h)
		}
	}
	for _, name := range []string{"liu", "devi", "superpos"} {
		r := MustGet(name).Analyze(ts, core.Options{})
		check(name, r)
		switch {
		case r.Verdict == core.Feasible && !schedulable:
			t.Fatalf("%s accepted %v, which misses a deadline in simulation", name, ts)
		case r.Verdict == core.Infeasible && schedulable:
			t.Fatalf("%s rejected %v as infeasible, which simulates without a miss", name, ts)
		}
	}
}

// refereeSeeds are the literature sets whose hyperperiod is small
// enough, and sets whose Devi prefix condition holds with equality (the
// tie a bracket cannot decide) or moves off it by one time unit.
func refereeSeeds() []model.TaskSet {
	var sets []model.TaskSet
	for _, ex := range examplesets.All() {
		if _, ok := hyperperiod(ex.Set); ok {
			sets = append(sets, ex.Set)
		}
	}
	return append(sets,
		// At D = 2: (2/3)·2 + (3-2)·2/3 = 2.
		model.TaskSet{{WCET: 2, Deadline: 2, Period: 3}, {WCET: 1, Deadline: 9, Period: 9}, {WCET: 1, Deadline: 21, Period: 21}},
		// At D = 5: (1/3 + 3/7)·5 + 1/3 + (7-5)·3/7 = 5; then one more
		// unit of WCET, and one less of deadline.
		model.TaskSet{{WCET: 1, Deadline: 2, Period: 3}, {WCET: 3, Deadline: 5, Period: 7}, {WCET: 1, Deadline: 63, Period: 63}},
		model.TaskSet{{WCET: 1, Deadline: 2, Period: 3}, {WCET: 4, Deadline: 5, Period: 7}, {WCET: 1, Deadline: 63, Period: 63}},
		model.TaskSet{{WCET: 1, Deadline: 2, Period: 3}, {WCET: 3, Deadline: 4, Period: 7}, {WCET: 1, Deadline: 63, Period: 63}},
		// At D = 4, U = 1 and D > T, so no gap term: 1·4 = 4.
		model.TaskSet{{WCET: 1, Deadline: 3, Period: 3}, {WCET: 2, Deadline: 4, Period: 3}},
		// Full utilization on thirds and ninths.
		model.TaskSet{{WCET: 1, Deadline: 3, Period: 3}, {WCET: 3, Deadline: 9, Period: 9}, {WCET: 3, Deadline: 8, Period: 9}},
	)
}

// FuzzSimReferee referees every analyzer against the simulator on
// fuzzed sets of small hyperperiod (see refereeSet and referee). Each
// seed must decode as written, so the corpus holds exactly those sets.
func FuzzSimReferee(f *testing.F) {
	for _, ts := range refereeSeeds() {
		got, ok := refereeSet(encodeSet(ts))
		same := ok && slices.EqualFunc(got, ts, func(a, b model.Task) bool {
			return a.WCET == b.WCET && a.Deadline == b.Deadline && a.Period == b.Period
		})
		if !same {
			f.Fatalf("seed %v decodes as %v", ts, got)
		}
		f.Add(encodeSet(ts))
	}
	f.Add([]byte{0, 1, 0, 3, 0, 5, 0, 2, 0, 9, 1, 7, 0, 3, 0, 5, 0, 8, 0, 4, 0, 4, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, ok := refereeSet(data)
		if !ok {
			return
		}
		referee(t, ts)
	})
}
