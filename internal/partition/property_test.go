package partition

import (
	"cmp"
	"context"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/incremental"
	"repro/internal/model"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// randomPartitioned draws a partitioned workload: 1-4 processors with
// random speeds, 1-10 tasks, ~1/3 of them affinity-constrained.
func randomPartitioned(rng *rand.Rand) workload.Workload {
	m := 1 + rng.Intn(4)
	procs := make([]workload.Processor, m)
	for j := range procs {
		if rng.Intn(2) == 0 {
			procs[j].Speed = 1 + rng.Int63n(3)
		}
	}
	n := 1 + rng.Intn(10)
	tasks := make([]workload.PartitionedTask, n)
	for i := range tasks {
		wcet := 1 + rng.Int63n(20)
		period := wcet + rng.Int63n(280)
		deadline := wcet + rng.Int63n(period+period/4-wcet+1)
		tasks[i] = workload.PartitionedTask{
			Task: model.Task{WCET: wcet, Deadline: deadline, Period: period},
		}
		if rng.Intn(3) == 0 {
			// A random non-empty, strictly increasing index subset.
			for j := range m {
				if rng.Intn(2) == 0 {
					tasks[i].Affinity = append(tasks[i].Affinity, j)
				}
			}
			if len(tasks[i].Affinity) == 0 {
				tasks[i].Affinity = []int{rng.Intn(m)}
			}
		}
	}
	return workload.NewPartitioned(procs, tasks)
}

// coldPlatform draws platform i of the partition-cold shape: m in
// {4, 8, 16} by i, speeds 1–3 on every fourth platform, 2m–4m tasks whose
// UUniFast utilizations fill 55–85% of the capacity, log-uniform periods
// over 10²–10⁵ with constrained deadlines, 15% of tasks pinned to one or
// two processors, and every fifth platform overloaded to at least 1.05
// times its capacity.
func coldPlatform(rng *rand.Rand, i int) workload.Workload {
	m := []int{4, 8, 16}[i%3]
	procs := make([]workload.Processor, m)
	capacity := 0.0
	for j := range procs {
		if i%4 == 1 {
			procs[j].Speed = 1 + rng.Int63n(3)
		}
		capacity += float64(procs[j].EffectiveSpeed())
	}
	overloaded := i%5 == 2
	load := 0.55 + 0.3*rng.Float64()
	if overloaded {
		load = 1.05 + 0.15*rng.Float64()
	}
	n := 2*m + rng.Intn(2*m+1)
	tasks := make([]workload.PartitionedTask, 0, n)
	for _, u := range taskgen.UUniFast(n, load*capacity, rng) {
		tasks = append(tasks, coldTask(rng, m, u))
	}
	wl := workload.NewPartitioned(procs, tasks)
	// The per-task cap can cut an overloaded platform's demand below its
	// capacity; top it up.
	floor := new(big.Rat).Mul(wl.Capacity(), big.NewRat(105, 100))
	for overloaded && wl.Utilization().Cmp(floor) < 0 {
		wl.PartTasks = append(wl.PartTasks, coldTask(rng, m, 0.5+0.4*rng.Float64()))
	}
	return wl
}

// coldTask draws one task of utilization about min(u, 0.9).
func coldTask(rng *rand.Rand, m int, u float64) workload.PartitionedTask {
	t := int64(math.Round(math.Pow(10, 2+3*rng.Float64())))
	c := min(max(int64(math.Round(min(u, 0.9)*float64(t))), 1), t)
	d := t - int64(0.3*rng.Float64()*float64(t-c))
	pt := workload.PartitionedTask{Task: model.Task{WCET: c, Deadline: max(d, c), Period: t}}
	if rng.Float64() < 0.15 {
		a, b := rng.Intn(m), rng.Intn(m)
		pt.Affinity = []int{min(a, b), max(a, b)}
		if a == b {
			pt.Affinity = pt.Affinity[:1]
		}
	}
	return pt
}

// TestCertificatePlacesLikeExact: with the eligible cascade most trials
// are settled by the per-processor incremental certificate, while "pd"
// is not eligible and runs the exact processor-demand test on every
// trial. Both placements must make every decision alike — the winner,
// every task's processor, each failed heuristic's trail and each final
// bin — on random platforms and on the partition-cold shape, under both
// arithmetics.
func TestCertificatePlacesLikeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var wls []workload.Workload
	for range 250 {
		wls = append(wls, randomPartitioned(rng))
	}
	cold := rand.New(rand.NewSource(3))
	for i := range 300 {
		wls = append(wls, coldPlatform(cold, i))
	}
	feasible, failed := 0, 0
	for trial, wl := range wls {
		var opt core.Options
		if trial%3 == 0 {
			opt.Arithmetic = core.ArithBigRat
		}
		got, err := Place(context.Background(), wl, Config{Analyzer: "cascade", Options: opt})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := Place(context.Background(), wl, Config{Analyzer: "pd", Options: opt})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got.Feasible != want.Feasible || got.Heuristic != want.Heuristic ||
			!reflect.DeepEqual(got.Assignment, want.Assignment) {
			t.Fatalf("trial %d: certificate placed (%v, %q, %v), exact (%v, %q, %v)", trial,
				got.Feasible, got.Heuristic, got.Assignment, want.Feasible, want.Heuristic, want.Assignment)
		}
		if !reflect.DeepEqual(got.Attempts, want.Attempts) {
			t.Fatalf("trial %d: attempts\n%+v\nexact\n%+v", trial, got.Attempts, want.Attempts)
		}
		if !reflect.DeepEqual(got.Counterexample, want.Counterexample) {
			t.Fatalf("trial %d: counterexample %+v, exact %+v", trial, got.Counterexample, want.Counterexample)
		}
		if len(got.Processors) != len(want.Processors) {
			t.Fatalf("trial %d: %d processor reports, exact %d", trial, len(got.Processors), len(want.Processors))
		}
		for j, g := range got.Processors {
			w := want.Processors[j]
			if !reflect.DeepEqual(g.Tasks, w.Tasks) || g.UtilizationExact != w.UtilizationExact || g.Verdict != w.Verdict {
				t.Fatalf("trial %d: processor %d reports (%v, %s, %s), exact (%v, %s, %s)", trial, j,
					g.Tasks, g.UtilizationExact, g.Verdict, w.Tasks, w.UtilizationExact, w.Verdict)
			}
		}
		if got.Feasible {
			feasible++
		}
		failed += len(got.Attempts)
	}
	if feasible == 0 || failed == 0 {
		t.Fatalf("inputs lack feasible (%d) or failed (%d) placements", feasible, failed)
	}
	t.Logf("%d/%d platforms placed, %d failed heuristic trails", feasible, len(wls), failed)
}

// TestPlacementConfirmedByFullAnalyzer is the oracle property over random
// workloads, affinity-constrained and heterogeneous-speed sets included:
// every placement declared feasible must be confirmed by re-running each
// processor's bin — rebuilt from the reported assignment alone — through
// both the configured cascade and the full (non-cascade) processor-demand
// analyzer. The reported verdict must be the cascade's, and the reported
// iterations those of the bin's last trial (see lastTrial).
func TestPlacementConfirmedByFullAnalyzer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	oracle := engine.MustGet("pd")
	cascade := engine.MustGet("cascade")
	feasible := 0
	const trials = 250
	for trial := range trials {
		wl := randomPartitioned(rng)
		cfg := Config{}
		if trial%5 == 0 {
			cfg.Heuristics = []Heuristic{AllHeuristics()[trial/5%3]}
		}
		pl, err := Place(context.Background(), wl, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !pl.Feasible {
			if pl.Counterexample == nil {
				t.Fatalf("trial %d: infeasible without counterexample", trial)
			}
			if len(pl.Counterexample.Rejections) != len(wl.Processors) {
				t.Fatalf("trial %d: rejection trail covers %d of %d processors",
					trial, len(pl.Counterexample.Rejections), len(wl.Processors))
			}
			continue
		}
		feasible++
		for i, j := range pl.Assignment {
			if !wl.PartTasks[i].Allows(j) {
				t.Fatalf("trial %d: task %d placed on %d against its affinity", trial, i, j)
			}
		}
		for _, rep := range pl.Processors {
			if len(rep.Tasks) == 0 {
				continue
			}
			bin := BinTasks(wl, rep.Index, rep.Tasks)
			if res := oracle.Analyze(bin, core.Options{}); res.Verdict != core.Feasible {
				t.Fatalf("trial %d: oracle rejects processor %d: %s", trial, rep.Index, res.Verdict)
			}
			// The recorded verdict must be the cascade's own, and the
			// iterations those of the bin's last trial.
			res := cascade.Analyze(bin, core.Options{})
			iters, _ := lastTrial(bin, true, res)
			if res.Verdict.String() != rep.Verdict || iters != rep.Iterations {
				t.Fatalf("trial %d: processor %d recorded (%s, %d), cascade says %s, last trial %d iterations",
					trial, rep.Index, rep.Verdict, rep.Iterations, res.Verdict, iters)
			}
		}
	}
	if feasible == 0 {
		t.Fatal("no feasible trial — the generator is miscalibrated")
	}
	t.Logf("%d/%d trials feasible", feasible, trials)
}

// lastTrial replays the last trial of a final bin, bin in placement
// order, and returns the iterations it reports. Under an eligible
// configuration with the bin's fill below 1, a fresh incremental.State
// admits the bin's earlier tasks and checks its last one; when that
// certificate accepts, its checked test points are the iterations and
// certified is true. Otherwise the analyzer ran on exactly the bin, and
// res, a fresh run of it, gives them.
func lastTrial(bin model.TaskSet, eligible bool, res core.Result) (iterations int64, certified bool) {
	fill := new(big.Rat)
	for _, t := range bin {
		fill.Add(fill, big.NewRat(t.WCET, t.Period))
	}
	if eligible && fill.Cmp(big.NewRat(1, 1)) < 0 {
		st := incremental.New(engine.DefaultSuperPosLevel)
		for _, t := range bin[:len(bin)-1] {
			st.Admit(workload.SporadicTask(t))
		}
		if ok, checked := st.Check(workload.SporadicTask(bin[len(bin)-1])); ok {
			return checked, true
		}
	}
	return res.Iterations, false
}

// TestFinalBinsReportTheirLastTrial: a final bin reports the trial that
// admitted its last task, with no second proof. Every bin's verdict must
// be a fresh run's of the configured analyzer on the whole bin; its
// iterations must be that run's where the last trial ran the analyzer,
// and the replayed certificate's checked points, with no wall time,
// where the certificate accepted. Configurations the certificate cannot
// serve (a capped cascade, "pd") run the analyzer on every trial, so
// there every final bin reports a run, and a report of any earlier trial
// than the bin's last shows as fewer iterations.
func TestFinalBinsReportTheirLastTrial(t *testing.T) {
	configs := []Config{
		{},
		{Options: core.Options{MaxIterations: 1 << 40}},
		{Analyzer: "pd"},
	}
	rng := rand.New(rand.NewSource(17))
	cold := rand.New(rand.NewSource(19))
	var certified, ran int
	for trial := range 300 {
		wl := randomPartitioned(rng)
		if trial%2 == 1 {
			wl = coldPlatform(cold, trial)
		}
		cfg := configs[trial%len(configs)]
		analyzer := engine.MustGet(cmp.Or(cfg.Analyzer, "cascade"))
		eligible := incremental.Eligible(analyzer.Info().Name, cfg.Options)
		pl, err := Place(context.Background(), wl, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, rep := range pl.Processors {
			if len(rep.Tasks) == 0 {
				continue
			}
			bin := BinTasks(wl, rep.Index, rep.Tasks)
			res := analyzer.Analyze(bin, cfg.Options)
			iters, cert := lastTrial(bin, eligible, res)
			if res.Verdict.String() != rep.Verdict || iters != rep.Iterations {
				t.Fatalf("trial %d: processor %d with %d tasks reports (%s, %d), a fresh %s run says %s, the last trial %d iterations (certificate %v)",
					trial, rep.Index, len(rep.Tasks), rep.Verdict, rep.Iterations, analyzer.Info().Name, res.Verdict, iters, cert)
			}
			if cert {
				certified++
				if rep.WallNS != 0 {
					t.Fatalf("trial %d: processor %d, decided by the certificate, reports %d ns of analysis", trial, rep.Index, rep.WallNS)
				}
			} else {
				ran++
			}
		}
	}
	if certified == 0 || ran == 0 {
		t.Fatalf("%d final bins decided by the certificate, %d by the analyzer: the generators are miscalibrated", certified, ran)
	}
	t.Logf("%d final bins decided by the certificate, %d by the analyzer", certified, ran)
}

// TestPlaceConcurrent places the same platforms from several goroutines
// at once, so recycled placers move between goroutines (run it with
// -race), and requires every result to equal the serial one, which was
// taken before and must not alias any placer's memory.
func TestPlaceConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	wls := make([]workload.Workload, 24)
	want := make([]Placement, len(wls))
	for i := range wls {
		wls[i] = coldPlatform(rng, i)
		pl, err := Place(context.Background(), wls[i], Config{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = withoutWallTimes(pl)
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range wls {
				i := (k + 7*g) % len(wls)
				got, err := Place(context.Background(), wls[i], Config{})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(withoutWallTimes(got), want[i]) {
					t.Errorf("goroutine %d: platform %d placed differently from the serial run", g, i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// withoutWallTimes returns pl with the per-bin wall times, the only
// run-dependent field, zeroed in a copy of its reports.
func withoutWallTimes(pl Placement) Placement {
	pl.Processors = slices.Clone(pl.Processors)
	for j := range pl.Processors {
		pl.Processors[j].WallNS = 0
	}
	return pl
}
