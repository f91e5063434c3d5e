package partition

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/workload"
)

// countingCache satisfies Cache and counts the calls it receives.
type countingCache struct{ calls int }

func (c *countingCache) Get(string) (core.Result, bool) {
	c.calls++
	return core.Result{}, false
}
func (c *countingCache) Put(string, core.Result) { c.calls++ }

func task(name string, c, d, t int64, affinity ...int) workload.PartitionedTask {
	return workload.PartitionedTask{
		Task:     model.Task{Name: name, WCET: c, Deadline: d, Period: t},
		Affinity: affinity,
	}
}

func TestPlaceFeasibleTwoProcessors(t *testing.T) {
	wl := workload.NewPartitioned(
		[]workload.Processor{{Name: "p0"}, {Name: "p1"}},
		[]workload.PartitionedTask{
			task("a", 6, 10, 10),
			task("b", 6, 10, 10),
			task("c", 2, 10, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible {
		t.Fatalf("placement infeasible: %+v", pl)
	}
	if len(pl.Assignment) != 3 || len(pl.Processors) != 2 {
		t.Fatalf("shape: %+v", pl)
	}
	if pl.Assignment[0] == pl.Assignment[1] {
		t.Error("two 0.6-utilization tasks share a processor")
	}
	for _, r := range pl.Processors {
		if r.Verdict != "feasible" {
			t.Errorf("processor %d verdict %s", r.Index, r.Verdict)
		}
	}
	if len(pl.Attempts) != 0 || pl.Counterexample != nil {
		t.Errorf("feasible placement carries a failure trail: %+v", pl)
	}
	if pl.Stats.BinChecks == 0 {
		t.Error("no bin checks counted")
	}
	again, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withoutWallTimes(again), withoutWallTimes(pl)) {
		t.Errorf("repeated placement\n%+v\ndiffers from the first\n%+v", again, pl)
	}
}

func TestPlaceHonorsAffinity(t *testing.T) {
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {}},
		[]workload.PartitionedTask{
			task("pinned", 1, 10, 10, 1),
			task("free", 8, 10, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible || pl.Assignment[0] != 1 {
		t.Fatalf("affinity violated: %+v", pl)
	}
}

func TestPlaceHeuristicRanking(t *testing.T) {
	// One 0.5-utilization task, processors of speed 1 and 2: first-fit
	// takes index 0, worst-fit the most spare absolute capacity (the
	// fast processor), balance the lowest resulting fill (also the fast
	// one, where the scaled demand is ceil(5/2)/10 = 3/10).
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {Speed: 2}},
		[]workload.PartitionedTask{task("t", 5, 10, 10)},
	)
	for h, want := range map[Heuristic]int{FirstFit: 0, WorstFit: 1, Balance: 1} {
		pl, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{h}})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Feasible || pl.Assignment[0] != want {
			t.Errorf("%s placed task on %d, want %d", h, pl.Assignment[0], want)
		}
		if pl.Heuristic != h {
			t.Errorf("winning heuristic %q, want %q", pl.Heuristic, h)
		}
	}
	// Period-1 tasks make every fill an integer (a plan without chunks),
	// so equal processors tie exactly and the lowest index wins.
	ties := workload.NewPartitioned(
		[]workload.Processor{{Speed: 2}, {Speed: 2}, {Speed: 2}, {Speed: 2}},
		[]workload.PartitionedTask{task("a", 1, 1, 1), task("b", 1, 1, 1)},
	)
	for _, h := range []Heuristic{FirstFit, WorstFit, Balance} {
		pl, err := Place(context.Background(), ties, Config{Heuristics: []Heuristic{h}})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Feasible || !slices.Equal(pl.Assignment, []int{0, 1}) {
			t.Errorf("%s placed period-1 tasks on %v, want [0 1]", h, pl.Assignment)
		}
	}
}

// TestPlaceRunsParsedHeuristic: a heuristic spelled with padding and in
// upper case passes validation, and must then run, and be reported, as
// the heuristic it names, not as first-fit under the raw spelling.
func TestPlaceRunsParsedHeuristic(t *testing.T) {
	// One 0.5-utilization task, processors of speed 1 and 2: only
	// first-fit takes processor 0.
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {Speed: 2}},
		[]workload.PartitionedTask{task("t", 5, 10, 10)},
	)
	for _, h := range []Heuristic{WorstFit, Balance} {
		spelling := " " + Heuristic(strings.ToUpper(string(h)))
		pl, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{spelling}})
		if err != nil {
			t.Fatal(err)
		}
		if !pl.Feasible || pl.Heuristic != h || pl.Assignment[0] != 1 {
			t.Errorf("%q: placed by %q on %v, want %q on processor 1", spelling, pl.Heuristic, pl.Assignment, h)
		}
	}
}

func TestPlaceSpeedScaling(t *testing.T) {
	// A task demanding 15 units per 10 fits only the speed-2 processor
	// (scaled WCET ceil(15/2) = 8 <= deadline 10).
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {Speed: 2}},
		[]workload.PartitionedTask{{Task: model.Task{Name: "heavy", WCET: 15, Deadline: 20, Period: 10}}},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !pl.Feasible || pl.Assignment[0] != 1 {
		t.Fatalf("heavy task not placed on the fast processor: %+v", pl)
	}
	bin := BinTasks(wl, 1, []int{0})
	if bin[0].WCET != 8 {
		t.Errorf("scaled WCET %d, want 8", bin[0].WCET)
	}
}

// TestScaledWCETExactCeil pins speed scaling to the exact ceiling
// ceil(C/s), which always lies in [1, C], up to the int64 extremes where
// the naive (C+s-1)/s wraps.
func TestScaledWCETExactCeil(t *testing.T) {
	for _, s := range []int64{1, 2, 3, 1 << 62, math.MaxInt64} {
		for _, c := range []int64{1, 2, 1<<62 + 1, math.MaxInt64} {
			wl := workload.NewPartitioned(
				[]workload.Processor{{Speed: s}},
				[]workload.PartitionedTask{task("t", c, c, c)},
			)
			got := BinTasks(wl, 0, []int{0})[0].WCET
			want, rem := new(big.Int).QuoRem(big.NewInt(c), big.NewInt(s), new(big.Int))
			if rem.Sign() != 0 {
				want.Add(want, big.NewInt(1))
			}
			if got != want.Int64() || got < 1 || got > c {
				t.Errorf("speed %d, WCET %d: scaled WCET %d, want %s", s, c, got, want)
			}
		}
	}
}

// TestTaskOrderMatchesRational: the cross-multiplied task order is the
// stable decreasing order of the exact utilizations C/T, ties and
// operands near MaxInt64 included.
func TestTaskOrderMatchesRational(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 300 {
		ts := make([]workload.PartitionedTask, 1+rng.Intn(12))
		for i := range ts {
			var p int64
			switch rng.Intn(3) {
			case 0:
				p = 1 + rng.Int63n(6) // small periods: many ties
			case 1:
				p = math.MaxInt64 - rng.Int63n(4)
			default:
				p = 1 + rng.Int63()
			}
			c := 1 + rng.Int63n(p)
			ts[i] = task("", c, p, p)
		}
		want := make([]int, len(ts))
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool {
			return ts[want[a]].Utilization().Cmp(ts[want[b]].Utilization()) > 0
		})
		if got := taskOrder(nil, ts); !slices.Equal(got, want) {
			t.Fatalf("trial %d: order %v, exact utilizations give %v", trial, got, want)
		}
	}
}

func TestPlaceCounterexample(t *testing.T) {
	// Three 0.7-utilization tasks on two processors: the third task is
	// gate-rejected everywhere, under every heuristic.
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {}},
		[]workload.PartitionedTask{
			task("a", 7, 10, 10),
			task("b", 7, 10, 10),
			task("c", 7, 10, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Feasible {
		t.Fatalf("overloaded workload placed: %+v", pl)
	}
	if len(pl.Attempts) != len(AllHeuristics()) {
		t.Fatalf("attempts: %+v", pl.Attempts)
	}
	if pl.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	ce := pl.Counterexample
	if ce.Placed != 2 || ce.FailedTaskName == "" {
		t.Errorf("counterexample: %+v", ce)
	}
	if len(ce.Rejections) != 2 {
		t.Fatalf("rejections: %+v", ce.Rejections)
	}
	for _, r := range ce.Rejections {
		if r.Reason != "gate" {
			t.Errorf("processor %d rejected for %q, want gate", r.Processor, r.Reason)
		}
	}
	if pl.Stats.GateRejections == 0 {
		t.Error("gate rejections not counted")
	}
}

func TestPlaceAnalyzerRejection(t *testing.T) {
	// Two D<T tasks whose combined demand misses deadlines although the
	// utilization gate passes (fill exactly 1): the rejection must carry
	// the analyzer verdict, not "gate".
	wl := workload.NewPartitioned(
		[]workload.Processor{{}},
		[]workload.PartitionedTask{
			task("a", 5, 5, 10),
			task("b", 5, 5, 10),
		},
	)
	pl, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{FirstFit}})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Feasible {
		t.Fatalf("infeasible bin placed: %+v", pl)
	}
	if got := pl.Counterexample.Rejections[0].Reason; got != "infeasible" {
		t.Errorf("rejection reason %q, want infeasible", got)
	}
}

// TestPlaceDeterministic: repeated placements of one platform are equal
// apart from their wall times, and a Config.Cache, which placement no
// longer consults, receives no call.
func TestPlaceDeterministic(t *testing.T) {
	wl := workload.NewPartitioned(
		[]workload.Processor{{}, {Speed: 2}, {}},
		[]workload.PartitionedTask{
			task("a", 6, 10, 10),
			task("b", 3, 9, 10),
			task("c", 4, 12, 15, 0, 2),
			task("d", 2, 6, 8),
		},
	)
	first, err := Place(context.Background(), wl, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !first.Feasible {
		t.Fatalf("placement infeasible: %+v", first)
	}
	cache := &countingCache{}
	for run := range 2 {
		again, err := Place(context.Background(), wl, Config{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withoutWallTimes(again), withoutWallTimes(first)) {
			t.Errorf("run %d placed\n%+v\nthe first run\n%+v", run, again, first)
		}
	}
	if cache.calls != 0 {
		t.Errorf("the cache received %d calls, want none", cache.calls)
	}
}

func TestPlaceRejectsBadInput(t *testing.T) {
	sporadic := workload.NewSporadic(model.TaskSet{{WCET: 1, Deadline: 2, Period: 2}})
	if _, err := Place(context.Background(), sporadic, Config{}); err == nil {
		t.Error("sporadic workload accepted")
	}
	wl := workload.NewPartitioned([]workload.Processor{{}}, []workload.PartitionedTask{task("a", 1, 2, 2)})
	if _, err := Place(context.Background(), wl, Config{Analyzer: "bogus"}); err == nil {
		t.Error("unknown analyzer accepted")
	}
	if _, err := Place(context.Background(), wl, Config{Heuristics: []Heuristic{"bogus"}}); err == nil {
		t.Error("unknown heuristic accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Place(ctx, wl, Config{}); err == nil {
		t.Error("canceled context not surfaced")
	}
}
