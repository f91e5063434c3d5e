package demand_test

import (
	"math/big"
	"testing"

	"repro/internal/demand"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/numeric"
)

// primesFrom returns the first n primes at or above v.
func primesFrom(v int64, n int) []int64 {
	var out []int64
	for ; len(out) < n; v++ {
		if big.NewInt(v).ProbablyPrime(20) {
			out = append(out, v)
		}
	}
	return out
}

// nearOne returns three tasks over prime periods just above 2^45 whose
// utilizations sum to 1 + sign/(p·q·r), numerators from modular inverses:
// closer to 1 than the bracket's 2^-128 per term.
func nearOne(sign int64) model.TaskSet {
	for start := int64(1<<45) + 1; ; start += 2 {
		periods := primesFrom(start, 3)
		ts := make(model.TaskSet, 3)
		for i, p := range periods {
			others := big.NewInt(1)
			for j, q := range periods {
				if j != i {
					others.Mul(others, big.NewInt(q))
				}
			}
			d := big.NewInt(p)
			c := new(big.Int).ModInverse(others.Mod(others, d), d)
			if sign < 0 {
				c.Sub(d, c)
			}
			ts[i] = model.Task{WCET: c.Int64(), Deadline: p, Period: p}
		}
		// The residues fix the sum to k ± 1/(pqr); keep a triple next to 1.
		if ts.Utilization().Cmp(big.NewRat(3, 2)) < 0 {
			return ts
		}
	}
}

// unplannable returns 33 tasks over periods w·q for distinct primes q
// above 2^31: no two periods share a chunk, so no plan covers the set.
// WCET c·q gives each task utilization c/w.
func unplannable(c, w int64) model.TaskSet {
	var ts model.TaskSet
	for _, q := range primesFrom(1<<31, 33) {
		ts = append(ts, model.Task{WCET: c * q, Deadline: w * q, Period: w * q})
	}
	return ts
}

// repeat returns n copies of the task with utilization 1/p.
func repeat(n int, p int64) model.TaskSet {
	var ts model.TaskSet
	for range n {
		ts = append(ts, model.Task{WCET: 1, Deadline: p, Period: p})
	}
	return ts
}

// TestUtilCmpOneMatchesBigRat compares UtilCmpOne with the big.Rat sum
// across the bracket's band: sums of exactly 1 whose terms the 128-bit
// bracket truncates, sums 1 ± 1/(pqr), sets no chunk plan covers and
// event sources with one-shot elements. The band cases must leave the
// bracket undecided, so the register sum decides them; every other case
// must cost no promotion, even on a set no plan covers.
func TestUtilCmpOneMatchesBigRat(t *testing.T) {
	oneShot := eventstream.Task{WCET: 2, Deadline: 9, Stream: eventstream.Stream{
		{Cycle: 6}, {Cycle: 6, Offset: 2}, {Offset: 40}, {Cycle: 6, Offset: 4},
	}}
	cases := []struct {
		name   string
		tasks  model.TaskSet
		events []eventstream.Task
		band   bool // the bracket cannot decide
	}{
		{name: "thirds", tasks: repeat(3, 3), band: true},
		{name: "sevenths", tasks: repeat(7, 7), band: true},
		{name: "half-third-sixth", tasks: append(append(repeat(1, 2), repeat(1, 3)...), repeat(1, 6)...), band: true},
		{name: "above-one-exact", tasks: append(repeat(3, 3), model.Task{WCET: 1, Deadline: 1 << 40, Period: 1 << 40}), band: false},
		{name: "one-plus", tasks: nearOne(1), band: true},
		{name: "one-minus", tasks: nearOne(-1), band: true},
		{name: "unplannable-one", tasks: unplannable(3, 99), band: true},
		{name: "unplannable-below", tasks: unplannable(1, 99), band: false},
		{name: "unplannable-above", tasks: unplannable(4, 99), band: false},
		{name: "events-one", events: []eventstream.Task{oneShot}, band: true},
		{name: "events-one-more-one-shot", events: []eventstream.Task{oneShot, {WCET: 1, Deadline: 3, Stream: eventstream.Stream{{Offset: 5}}}}, band: true},
		{name: "events-below", events: []eventstream.Task{{WCET: 2, Deadline: 9, Stream: eventstream.Stream{{Cycle: 6}, {Offset: 40}, {Cycle: 7}}}}, band: false},
		{name: "events-above", events: []eventstream.Task{oneShot, {WCET: 1, Deadline: 3, Stream: eventstream.Periodic(1 << 50)}}, band: false},
	}
	sc := demand.NewScratch()
	for _, c := range cases {
		srcs := eventstream.Sources(c.events)
		u := new(big.Rat)
		for _, et := range c.events {
			u.Add(u, new(big.Rat).Mul(et.Stream.Utilization(), big.NewRat(et.WCET, 1)))
		}
		if c.events == nil {
			srcs = sc.Sources(c.tasks)
			u = c.tasks.Utilization()
		}
		want := u.Cmp(big.NewRat(1, 1))
		var bracket numeric.UtilSum
		for _, src := range srcs {
			bracket = bracket.Add(src.UtilRat())
		}
		if _, ok := bracket.CmpOne(); ok == c.band {
			t.Fatalf("%s: bracket decided %v, want %v", c.name, ok, !c.band)
		}
		p0 := sc.ArithPromotions()
		if got := sc.UtilCmpOne(srcs); got != want {
			t.Fatalf("%s: UtilCmpOne %d, big.Rat %d (U = %s)", c.name, got, want, u.RatString())
		}
		if promos := sc.ArithPromotions() - p0; !c.band && promos != 0 {
			t.Fatalf("%s: a comparison the bracket decides cost %d promotions", c.name, promos)
		}
		// The register sum the reference arithmetic compares agrees.
		if got := sc.Util(srcs).CmpInt(1); got != want {
			t.Fatalf("%s: register sum compares %d", c.name, got)
		}
	}
	// Who pays in the band: the register sum of a set no plan covers runs
	// on math/big, one promotion per comparison.
	ts := unplannable(3, 99)
	p0 := sc.ArithPromotions()
	if sc.UtilCmpOne(sc.Sources(ts)) != 0 {
		t.Fatal("unplannable-one: U != 1")
	}
	if promos := sc.ArithPromotions() - p0; promos != 1 {
		t.Fatalf("unplannable-one: %d promotions, want the register sum's 1", promos)
	}
}

// TestBindRebuildsFromSharedPrefix drives one Scratch through keys that
// share prefixes of different lengths, as a session's escalations do, and
// through keys no plan covers. Each bound plan must be the one a fresh
// Scratch builds: on a key a plan covers, the exact utilization sum then
// stays on the registers and costs no promotion.
func TestBindRebuildsFromSharedPrefix(t *testing.T) {
	base := model.TaskSet{}
	for _, p := range []int64{1000, 2000, 5000, 7, 11, 13, 1 << 20, 3 * 17, 1000003} {
		base = append(base, model.Task{WCET: 1, Deadline: p, Period: p})
	}
	with := func(ts model.TaskSet, periods ...int64) model.TaskSet {
		out := append(model.TaskSet(nil), ts...)
		for _, p := range periods {
			out = append(out, model.Task{WCET: 1, Deadline: p, Period: p})
		}
		return out
	}
	keys := []model.TaskSet{
		base,
		with(base, 19),
		with(base, 23),
		with(base, 23, 29),
		with(base[:4], 31, 1<<40),
		unplannable(1, 99),
		with(unplannable(1, 99)[:30], 37),
		with(base, 41),
		base[:2],
		nil,
		with(base, 43),
	}
	sc := demand.NewScratch()
	for i, ts := range keys {
		srcs := demand.FromTasks(ts)
		p0 := sc.ArithPromotions()
		got := sc.Util(srcs).Rat()
		promos := sc.ArithPromotions() - p0
		fresh := demand.NewScratch()
		want := fresh.Util(srcs).Rat()
		if got.Cmp(want) != 0 || promos != fresh.ArithPromotions() {
			t.Fatalf("key %d: U %s with %d promotions, a fresh Scratch %s with %d",
				i, got.RatString(), promos, want.RatString(), fresh.ArithPromotions())
		}
		var plan numeric.Plan
		if plan.Build(periodsOf(ts)) && promos != 0 {
			t.Fatalf("key %d: a plan covers the key, yet the sum promoted %d times", i, promos)
		}
	}
}

// periodsOf returns the task periods in order.
func periodsOf(ts model.TaskSet) []int64 {
	var out []int64
	for _, task := range ts {
		out = append(out, task.Period)
	}
	return out
}
