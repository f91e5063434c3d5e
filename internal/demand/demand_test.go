package demand

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func TestSporadicJobDeadlines(t *testing.T) {
	s := UniformFromTask(model.Task{WCET: 2, Deadline: 7, Period: 10})
	wants := []int64{7, 17, 27, 37}
	for k, want := range wants {
		if got := s.JobDeadline(int64(k + 1)); got != want {
			t.Errorf("JobDeadline(%d) = %d, want %d", k+1, got, want)
		}
	}
	if got := s.JobDeadline(0); got != 0 {
		t.Errorf("JobDeadline(0) = %d", got)
	}
}

func TestSporadicNextDeadline(t *testing.T) {
	s := UniformFromTask(model.Task{WCET: 2, Deadline: 7, Period: 10})
	cases := []struct{ after, want int64 }{
		{0, 7}, {6, 7}, {7, 17}, {16, 17}, {17, 27}, {100, 107},
	}
	for _, c := range cases {
		if got := s.NextDeadline(c.after); got != c.want {
			t.Errorf("NextDeadline(%d) = %d, want %d", c.after, got, c.want)
		}
	}
}

func TestSporadicDemand(t *testing.T) {
	s := UniformFromTask(model.Task{WCET: 3, Deadline: 5, Period: 8})
	cases := []struct{ I, jobs, dem int64 }{
		{0, 0, 0}, {4, 0, 0}, {5, 1, 3}, {12, 1, 3}, {13, 2, 6}, {21, 3, 9},
	}
	for _, c := range cases {
		if got := s.JobsUpTo(c.I); got != c.jobs {
			t.Errorf("JobsUpTo(%d) = %d, want %d", c.I, got, c.jobs)
		}
		if got := s.DemandUpTo(c.I); got != c.dem {
			t.Errorf("DemandUpTo(%d) = %d, want %d", c.I, got, c.dem)
		}
	}
}

func TestApproxErrorZeroAtDeadlines(t *testing.T) {
	s := UniformFromTask(model.Task{WCET: 3, Deadline: 5, Period: 8})
	for k := int64(1); k <= 5; k++ {
		num, den := s.ApproxError(s.JobDeadline(k))
		if num != 0 || den <= 0 {
			t.Errorf("app at deadline %d = %d/%d, want 0", s.JobDeadline(k), num, den)
		}
	}
	// Between deadlines the error is C * elapsed/T.
	num, den := s.ApproxError(9) // 4 past the first deadline
	if num != 3*4 || den != 8 {
		t.Errorf("app(9) = %d/%d, want 12/8", num, den)
	}
}

// TestApproxErrorMatchesDefinition checks Lemma 6 numerically: app(I) must
// equal dbf'(I) - dbf(I) where dbf' is the level-anchored approximation,
// for any anchor level whose deadline precedes I.
func TestApproxErrorMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for range 2000 {
		T := int64(2 + rng.Intn(30))
		s := UniformFromTask(model.Task{WCET: 1 + rng.Int63n(9), Deadline: 1 + rng.Int63n(T), Period: T})
		I := s.First + rng.Int63n(10*T)
		level := 1 + rng.Int63n(4)
		if s.JobDeadline(level) > I {
			continue // approximation not active at I for this level
		}
		approx := ApproxDbfSource(s, I, level)
		exact := new(big.Rat).SetInt64(s.DemandUpTo(I))
		diff := new(big.Rat).Sub(approx, exact)
		num, den := s.ApproxError(I)
		if diff.Cmp(big.NewRat(num, den)) != 0 {
			t.Fatalf("src %+v I=%d level=%d: dbf'-dbf=%v, app=%d/%d",
				s, I, level, diff, num, den)
		}
	}
}

func TestDbfMonotoneAndStepwise(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ts := make(model.TaskSet, 0, 4)
		for range 1 + rng.Intn(4) {
			T := int64(2 + rng.Intn(20))
			C := 1 + rng.Int63n(T)
			ts = append(ts, model.Task{WCET: C, Deadline: C + rng.Int63n(T-C+1), Period: T})
		}
		srcs := FromTasks(ts)
		prev := int64(0)
		for I := int64(0); I <= 200; I++ {
			cur := Dbf(srcs, I)
			if cur < prev {
				return false // must be non-decreasing
			}
			if cur > prev {
				// Steps only at job deadlines.
				isDeadline := false
				for _, s := range srcs {
					if s.JobsUpTo(I) != s.JobsUpTo(I-1) {
						isDeadline = true
						break
					}
				}
				if !isDeadline {
					return false
				}
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestApproxDbfUpperBounds checks dbf'(I) >= dbf(I) everywhere and equality
// below the maximum exact test interval (Definition 4).
func TestApproxDbfUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for range 500 {
		T := int64(2 + rng.Intn(25))
		s := UniformFromTask(model.Task{WCET: 1 + rng.Int63n(6), Deadline: 1 + rng.Int63n(T), Period: T})
		level := 1 + rng.Int63n(5)
		im := s.JobDeadline(level)
		for I := int64(0); I <= im+5*T; I += 1 + rng.Int63n(3) {
			approx := ApproxDbfSource(s, I, level)
			exact := new(big.Rat).SetInt64(s.DemandUpTo(I))
			if approx.Cmp(exact) < 0 {
				t.Fatalf("dbf'(%d) = %v < dbf = %v for %+v level %d", I, approx, exact, s, level)
			}
			if I <= im {
				if approx.Cmp(exact) != 0 {
					t.Fatalf("dbf'(%d) = %v != dbf = %v below Im=%d", I, approx, exact, im)
				}
			}
		}
	}
}

func TestUtilizationSum(t *testing.T) {
	ts := model.TaskSet{
		{WCET: 1, Deadline: 4, Period: 4},
		{WCET: 1, Deadline: 2, Period: 2},
	}
	if got := NewScratch().Util(FromTasks(ts)).Rat(); got.Cmp(big.NewRat(3, 4)) != 0 {
		t.Errorf("U = %v, want 3/4", got)
	}
}

func TestTestListOrdering(t *testing.T) {
	tl := NewTestList(4)
	tl.Add(30, 2)
	tl.Add(10, 1)
	tl.Add(10, 0)
	tl.Add(20, 3)
	tl.Add(MaxInterval, 9) // must be ignored
	var got []Entry
	for !tl.Empty() {
		got = append(got, tl.Next())
	}
	want := []Entry{{10, 0}, {10, 1}, {20, 3}, {30, 2}}
	if len(got) != len(want) {
		t.Fatalf("popped %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSporadicOverflowSaturates(t *testing.T) {
	s := UniformFromTask(model.Task{WCET: 10, Deadline: 1 << 40, Period: 1 << 40})
	if got := s.JobDeadline(1 << 30); got != MaxInterval {
		t.Errorf("overflowing deadline = %d, want MaxInterval", got)
	}
}

// TestByDeadlineMatchesStableSort compares Scratch.ByDeadline with
// model.TaskSet.SortedByDeadline, a stable sort of the tasks, on sets
// with many equal deadlines, small ones and ones up to MaxInt64.
func TestByDeadlineMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := NewScratch()
	for i := range 600 {
		n := rng.Intn(70)
		ts := make(model.TaskSet, n)
		for j := range ts {
			d := 1 + rng.Int63n(8)
			if i%2 == 1 {
				d = math.MaxInt64 - rng.Int63n(3)
			}
			ts[j] = model.Task{WCET: 1 + int64(j), Deadline: d, Period: 2 + int64(j)}
		}
		want := ts.SortedByDeadline()
		got := sc.ByDeadline(ts)
		if len(got) != len(want) {
			t.Fatalf("set %d: %d keys for %d tasks", i, len(got), len(want))
		}
		for k, key := range got {
			w := want[k]
			if key.D != w.Deadline || key.C != w.WCET || key.T != w.Period || ts[key.Index] != w {
				t.Fatalf("set %d, position %d: key %+v, stable sort %+v", i, k, key, w)
			}
		}
	}
}
