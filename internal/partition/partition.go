package partition

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/demand"
	"repro/internal/engine"
	"repro/internal/incremental"
	"repro/internal/model"
	"repro/internal/numeric"
	"repro/internal/workload"
)

// Heuristic names a placement strategy. All strategies consider tasks in
// decreasing utilization order; they differ in how candidate processors
// are ranked.
type Heuristic string

const (
	// FirstFit ranks candidates by processor index.
	FirstFit Heuristic = "first-fit"
	// WorstFit ranks candidates by remaining absolute capacity,
	// speed·(1−fill), largest first.
	WorstFit Heuristic = "worst-fit"
	// Balance ranks candidates by the fill the placement would produce,
	// smallest first, keeping relative loads even across speeds.
	Balance Heuristic = "balance"
)

// AllHeuristics is the default strategy order: cheapest packing first,
// spread-out strategies after.
func AllHeuristics() []Heuristic { return []Heuristic{FirstFit, WorstFit, Balance} }

// ParseHeuristic resolves the wire form of a heuristic name.
func ParseHeuristic(s string) (Heuristic, error) {
	switch h := Heuristic(strings.ToLower(strings.TrimSpace(s))); h {
	case FirstFit, WorstFit, Balance:
		return h, nil
	case "":
		return "", fmt.Errorf("partition: empty heuristic")
	default:
		return "", fmt.Errorf("partition: unknown heuristic %q (want %q, %q or %q)", s, FirstFit, WorstFit, Balance)
	}
}

// ParseHeuristics resolves a heuristic list; an empty list selects
// AllHeuristics.
func ParseHeuristics(specs []string) ([]Heuristic, error) {
	if len(specs) == 0 {
		return AllHeuristics(), nil
	}
	out := make([]Heuristic, len(specs))
	for i, s := range specs {
		h, err := ParseHeuristic(s)
		if err != nil {
			return nil, err
		}
		out[i] = h
	}
	return out, nil
}

// Cache is a result store keyed by analysis fingerprint. It is satisfied
// directly by the service's sharded LRU; a nil Cache disables reuse.
type Cache interface {
	Get(key string) (core.Result, bool)
	Put(key string, r core.Result)
}

// Config tunes a placement run.
type Config struct {
	// Analyzer is the registry name (or group spec) verifying each bin;
	// empty selects "cascade".
	Analyzer string
	// Options tune the per-bin analyses and contribute to their cache
	// identity.
	Options core.Options
	// Workers bounds the batch runner's pool that re-proves the final
	// bins whose last trial the incremental certificate decided; <= 0
	// selects NumCPU. Trials during the search run on the calling
	// goroutine.
	Workers int
	// Cache, when non-nil, serves final-bin verdicts whose fingerprint
	// was analyzed before and receives every fresh one, whether a bin's
	// last trial proved it or a re-proof did. Trials during the search
	// never consult it.
	Cache Cache
	// Heuristics is the strategy order; empty selects AllHeuristics.
	Heuristics []Heuristic
}

// Stats count the work a placement run performed.
type Stats struct {
	// BinChecks is the number of bin verdicts consulted: one per trial
	// that passed the utilization gate, settled by the incremental
	// certificate or an analyzer run, plus one per non-empty final bin
	// of a feasible placement, served by the cache, by the analyzer run
	// of its last trial, or by a re-proof.
	BinChecks uint64 `json:"bin_checks"`
	// CacheHits is how many final-bin verdicts came from the cache.
	CacheHits uint64 `json:"cache_hits"`
	// GateRejections counts candidates dismissed by the O(1) utilization
	// gate without any analyzer run.
	GateRejections uint64 `json:"gate_rejections"`
	// Promotions counts exits from the bounded-denominator arithmetic
	// fast path in the analyzer runs: the trials and the re-proofs. The
	// placement's own decisions and fills are exact uint64 fractions,
	// on math/big where those overflow, and promote nothing.
	Promotions uint64 `json:"promotions,omitempty"`
}

// ProcessorReport is the per-processor slice of a feasible placement.
type ProcessorReport struct {
	// Index is the processor's position in the workload.
	Index int `json:"processor"`
	// Name echoes the processor's name when it has one.
	Name string `json:"name,omitempty"`
	// Speed is the effective relative speed.
	Speed int64 `json:"speed"`
	// Tasks lists the assigned tasks by their original workload index,
	// in placement order.
	Tasks []int `json:"tasks"`
	// Utilization is the scaled fill Σ ceil(C/speed)/T as a float, the
	// fraction of this processor the bin consumes.
	Utilization float64 `json:"utilization"`
	// UtilizationExact is the same fill as an exact rational string.
	UtilizationExact string `json:"utilization_exact"`
	// Verdict is the uniprocessor verdict for the bin ("feasible" for an
	// empty bin, which needs no test).
	Verdict string `json:"verdict"`
	// Iterations is the verifying analysis' effort metric.
	Iterations int64 `json:"iterations,omitempty"`
	// WallNS is the verifying analysis' wall time: the bin's last trial
	// when that trial ran the analyzer, the re-proof otherwise, 0 on a
	// cache hit.
	WallNS int64 `json:"wall_ns,omitempty"`
	// CacheHit reports whether the final verdict came from the cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Fingerprint is the bin's content address — the same key
	// /v1/analyze would use for this scaled task set — empty when the
	// options are not content-addressable or the bin is empty.
	Fingerprint string `json:"fingerprint,omitempty"`
}

// Rejection explains why one processor could not take the failed task.
type Rejection struct {
	// Processor is the rejecting processor's index.
	Processor int `json:"processor"`
	// Reason is "affinity", "gate", or the analyzer verdict that refused
	// the extended bin ("infeasible", "not-accepted", "undecided").
	Reason string `json:"reason"`
}

// Attempt is the trail of one heuristic that failed to place the
// workload.
type Attempt struct {
	// Heuristic names the strategy.
	Heuristic Heuristic `json:"heuristic"`
	// Placed is how many tasks the strategy placed before failing.
	Placed int `json:"placed"`
	// FailedTask is the original index of the first unplaceable task.
	FailedTask int `json:"failed_task"`
	// FailedTaskName echoes the task's name when it has one.
	FailedTaskName string `json:"failed_task_name,omitempty"`
	// Rejections holds one entry per processor.
	Rejections []Rejection `json:"rejections"`
}

// Placement is the outcome of a Place run: a proven placement, or the
// counterexample trail of every heuristic.
type Placement struct {
	// Feasible reports whether some heuristic found a placement whose
	// every bin a full analyzer run proved feasible.
	Feasible bool `json:"feasible"`
	// Heuristic names the winning strategy (feasible placements only).
	Heuristic Heuristic `json:"heuristic,omitempty"`
	// Assignment maps each task's original index to its processor
	// (feasible placements only).
	Assignment []int `json:"assignment,omitempty"`
	// Processors reports each bin's tasks, fill and verdict (feasible
	// placements only).
	Processors []ProcessorReport `json:"processors,omitempty"`
	// Attempts records every heuristic that failed, in strategy order.
	Attempts []Attempt `json:"attempts,omitempty"`
	// Counterexample, set when no heuristic succeeded, is the attempt
	// that got furthest — the task it names cannot be placed by the best
	// strategy tried.
	Counterexample *Attempt `json:"counterexample,omitempty"`
	// Stats counts the run's work.
	Stats Stats `json:"stats"`
}

// ceilDiv is ceil(c/s) for c >= 0, s >= 1. It never forms c+s, which
// wraps for speeds near MaxInt64.
func ceilDiv(c, s int64) int64 {
	q := c / s
	if c%s != 0 {
		q++
	}
	return q
}

// scaledTask maps a task onto a processor of relative speed s: execution
// demands shrink by s, rounded up so the mapping stays conservative.
// Speed 1 is the identity, keeping unit-speed bins byte-identical to
// plain sporadic tasks.
func scaledTask(t model.Task, s int64) model.Task {
	if s <= 1 {
		return t
	}
	t.WCET = ceilDiv(t.WCET, s)
	if t.CriticalSection > 0 {
		t.CriticalSection = ceilDiv(t.CriticalSection, s)
	}
	if t.SelfSuspension > 0 {
		t.SelfSuspension = ceilDiv(t.SelfSuspension, s)
	}
	return t
}

// BinTasks returns processor proc's bin as the uniprocessor task set the
// verdict applies to: the listed tasks (by original index) scaled to the
// processor's speed. It is the oracle-side twin of the sets Place
// verifies.
func BinTasks(wl workload.Workload, proc int, tasks []int) model.TaskSet {
	s := wl.Processors[proc].EffectiveSpeed()
	out := make(model.TaskSet, len(tasks))
	for i, ti := range tasks {
		out[i] = scaledTask(wl.PartTasks[ti].Task, s)
	}
	return out
}

// bin is one processor's working state during placement. The slices,
// the certificate and the fill keep their memory from one heuristic, and
// one placement, to the next.
type bin struct {
	speed  int64
	tasks  []int         // original task indices, placement order
	scaled model.TaskSet // scaled tasks, same order
	// cert is the incremental certificate over scaled, in use when the
	// placer certifies.
	cert *incremental.State
	// util brackets the fill and grown the fill plus the task at hand;
	// they decide the gate and the rankings.
	util, grown numeric.UtilSum
	// room estimates the remaining absolute capacity speed·(1−fill) from
	// util, to within roomErr (see cmpRoom): worst-fit's key across
	// speeds.
	room, roomErr float64
	// below reports the grown fill strictly below 1, as the gate found.
	below bool
	// last is the last admitted trial: the analyzer's verdict on exactly
	// the bin, when that trial ran the analyzer.
	last analysis
	// fill is the exact fill, valid while summed is set: it decides where
	// a bracket or an estimate cannot, and it is the fill reported.
	fill   fraction
	summed bool
	// reason is why the bin refused the task at hand ("" while it is a
	// candidate): the rejection trail of a task that fails everywhere.
	reason string
}

// analysis is the outcome of a trial or a re-proof: the analyzer's result
// and wall time, or, when ran is false, the incremental certificate's
// acceptance, which carries no result to report.
type analysis struct {
	res  core.Result
	wall int64 // ns
	ran  bool
}

// setRoom estimates the remaining absolute capacity from the fill's
// bracket.
func (b *bin) setRoom() {
	s := float64(b.speed)
	b.room = s * (1 - b.util.Float())
	b.roomErr = s * 0x1p-50
}

// cmpRoom orders the remaining absolute capacities speed·(1−fill) of x
// and y by their estimates; ok is false when the estimates lie within
// their combined error and the exact fills must decide. For a fill
// f <= 1, UtilSum.Float is within 2^-52 of f (one rounding, and a
// truncation far below it); 1−F, the speed's conversion to float64 and
// the product each round once more, by at most 2^-53 of a value no
// larger than s. An estimate is thus within 5·2^-53·s of s·(1−f), and the
// error bound s·2^-50 = 8·2^-53·s leaves room for the rounding of the
// difference and of the bounds' sum, which is formed in float64, since
// two speeds may not sum within an int64.
func cmpRoom(x, y *bin) (int, bool) {
	d := x.room - y.room
	if math.Abs(d) <= x.roomErr+y.roomErr {
		return 0, false
	}
	if d > 0 {
		return 1, true
	}
	return -1, true
}

// exact returns b's exact fill, summed over its scaled tasks on first
// use after a change.
func (b *bin) exact() *fraction {
	if !b.summed {
		b.fill.sum(b.scaled)
		b.summed = true
	}
	return &b.fill
}

// placer carries the run-wide state shared by the heuristics. Placers
// are recycled: a placement's bins, fills, certificates and Scratch
// keep their memory for the next one, and the Placement it returns never
// aliases them.
type placer struct {
	wl       workload.Workload
	analyzer engine.Analyzer
	name     string // analyzer spelling used for fingerprints
	cfg      Config
	certify  bool         // trials try the incremental certificate first
	opt      core.Options // cfg.Options with the placer's Scratch
	scratch  *demand.Scratch
	bins     []bin
	order    []int // task indices, decreasing utilization
	asg      []int // processor of each task
	cands    []int // processors that can take the task at hand, ranked
	stats    Stats
	// heuristics is the strategy order, parsed from cfg.Heuristics.
	heuristics []Heuristic
}

// placers recycles placer memory across placements.
var placers = sync.Pool{New: func() any { return &placer{scratch: demand.NewScratch()} }}

// Place assigns the partitioned workload's tasks to processors. It
// returns an error for structural problems (wrong model, invalid
// workload, unknown analyzer or heuristic, canceled context); an
// infeasible workload is not an error but a Placement with Feasible
// false and the counterexample trail filled in.
func Place(ctx context.Context, wl workload.Workload, cfg Config) (Placement, error) {
	if wl.Kind() != workload.Partitioned {
		return Placement{}, fmt.Errorf("partition: workload model %q is not %q", wl.Kind(), workload.Partitioned)
	}
	if err := wl.Validate(); err != nil {
		return Placement{}, err
	}
	name := cfg.Analyzer
	if strings.TrimSpace(name) == "" {
		name = "cascade"
	}
	analyzer, ok := engine.Get(name)
	if !ok {
		return Placement{}, fmt.Errorf("partition: unknown analyzer %q", name)
	}

	p := placers.Get().(*placer)
	defer p.release()
	// Run and report each heuristic as ParseHeuristic spells it.
	p.heuristics = p.heuristics[:0]
	for _, h := range cfg.Heuristics {
		parsed, err := ParseHeuristic(string(h))
		if err != nil {
			return Placement{}, err
		}
		p.heuristics = append(p.heuristics, parsed)
	}
	if len(p.heuristics) == 0 {
		p.heuristics = append(p.heuristics, AllHeuristics()...)
	}
	p.init(wl, analyzer, name, cfg)
	var out Placement
	for _, h := range p.heuristics {
		attempt, err := p.run(ctx, h)
		if err != nil {
			return Placement{}, err
		}
		if attempt != nil {
			out.Attempts = append(out.Attempts, *attempt)
			continue
		}
		reports, err := p.finalReports(ctx)
		if err != nil {
			return Placement{}, err
		}
		out.Feasible = true
		out.Heuristic = h
		out.Assignment = slices.Clone(p.asg)
		out.Processors = reports
		out.Stats = p.stats
		return out, nil
	}
	// Every heuristic failed: surface the attempt that got furthest as
	// the counterexample.
	best := 0
	for i, a := range out.Attempts {
		if a.Placed > out.Attempts[best].Placed {
			best = i
		}
	}
	ce := out.Attempts[best]
	out.Counterexample = &ce
	out.Stats = p.stats
	return out, nil
}

// init prepares a recycled placer for one placement: the task order and
// one bin per processor, reusing what earlier placements allocated.
func (p *placer) init(wl workload.Workload, analyzer engine.Analyzer, name string, cfg Config) {
	p.wl, p.analyzer, p.name, p.cfg = wl, analyzer, name, cfg
	p.certify = incremental.Eligible(analyzer.Info().Name, cfg.Options)
	p.opt = cfg.Options
	p.opt.Scratch = p.scratch
	p.stats = Stats{}
	n, m := len(wl.PartTasks), len(wl.Processors)
	p.order = taskOrder(p.order, wl.PartTasks)
	p.asg = slices.Grow(p.asg[:0], n)[:n]
	if cap(p.bins) < m {
		p.bins = append(p.bins[:cap(p.bins)], make([]bin, m-cap(p.bins))...)
	}
	p.bins = p.bins[:m]
	for j := range p.bins {
		b := &p.bins[j]
		b.speed = wl.Processors[j].EffectiveSpeed()
		if p.certify && b.cert == nil {
			b.cert = incremental.New(engine.DefaultSuperPosLevel)
		}
	}
}

// release drops the placement's references and recycles the placer.
func (p *placer) release() {
	p.wl, p.analyzer, p.cfg, p.opt = workload.Workload{}, nil, Config{}, core.Options{}
	for j := range p.bins {
		clear(p.bins[j].scaled[:cap(p.bins[j].scaled)])
	}
	placers.Put(p)
}

// taskOrder returns the task indices in decreasing exact utilization
// order (ties by original index), the "decreasing" in every heuristic's
// name — placing heavy tasks first is what makes the greedy strategies
// effective. The order reuses buf.
func taskOrder(buf []int, ts []workload.PartitionedTask) []int {
	order := buf[:0]
	for i := range ts {
		order = append(order, i)
	}
	slices.SortStableFunc(order, func(a, b int) int {
		return cmpFrac(uint64(ts[b].WCET), uint64(ts[b].Period), uint64(ts[a].WCET), uint64(ts[a].Period))
	})
	return order
}

// reset empties every bin for the next heuristic.
func (p *placer) reset() {
	for j := range p.bins {
		b := &p.bins[j]
		b.tasks = b.tasks[:0]
		b.scaled = b.scaled[:0]
		b.util = numeric.UtilSum{}
		b.setRoom()
		b.last = analysis{}
		b.summed = false
		if p.certify {
			b.cert.Reset()
		}
	}
}

// run executes one heuristic. On success p.asg holds the assignment and
// the bins the placement; on failure the attempt describes the first
// unplaceable task.
func (p *placer) run(ctx context.Context, h Heuristic) (*Attempt, error) {
	p.reset()
	for placed, ti := range p.order {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		task := &p.wl.PartTasks[ti]
		// Affinity, then the utilization gate, leave the candidates. The
		// grown bracket decides the gate unless the grown fill lies within
		// its truncation of 1; the exact fill decides those against 1, the
		// empty fill plus T/T.
		p.cands = p.cands[:0]
		for j := range p.bins {
			b := &p.bins[j]
			if !task.Allows(j) {
				b.reason = "affinity"
				continue
			}
			w := ceilDiv(task.WCET, b.speed)
			b.grown = b.util.Add(w, task.Period)
			c, ok := b.grown.CmpOne()
			if !ok {
				c = cmpFills(b.exact(), w, &fraction{q: 1}, task.Period, task.Period)
			}
			if c > 0 {
				p.stats.GateRejections++
				b.reason = "gate"
				continue
			}
			b.below = c < 0
			b.reason = ""
			p.cands = append(p.cands, j)
		}
		p.rank(h, &task.Task)
		// Lazily down the ranking: the first feasible candidate wins.
		won := false
		for _, j := range p.cands {
			st := scaledTask(task.Task, p.bins[j].speed)
			a := p.trial(&p.bins[j], st)
			if v := a.res.Verdict; v != core.Feasible {
				p.bins[j].reason = v.String()
				continue
			}
			p.admit(j, ti, st, a)
			won = true
			break
		}
		if !won {
			rejections := make([]Rejection, len(p.bins))
			for j := range p.bins {
				rejections[j] = Rejection{Processor: j, Reason: p.bins[j].reason}
			}
			return &Attempt{
				Heuristic:      h,
				Placed:         placed,
				FailedTask:     ti,
				FailedTaskName: task.Name,
				Rejections:     rejections,
			}, nil
		}
	}
	return nil, nil
}

// rank orders the candidates for task t by the heuristic, ties broken
// by processor index (every candidate list starts index-ascending). The
// brackets, or worst-fit's estimates, decide a comparison when they do
// not overlap, the exact fills otherwise, so the order is the exact one.
func (p *placer) rank(h Heuristic, t *model.Task) {
	if h == FirstFit {
		return
	}
	slices.SortStableFunc(p.cands, func(a, b int) int {
		x, y := &p.bins[a], &p.bins[b]
		if x.speed == y.speed {
			// t adds the same fraction to both bins, so the smaller fill
			// has the more remaining capacity and the smaller grown fill.
			if c, ok := x.util.Cmp(y.util); ok {
				return c
			}
			return cmpFills(x.exact(), 0, y.exact(), 0, 1)
		}
		if h == WorstFit {
			// Remaining absolute capacity, largest first.
			if c, ok := cmpRoom(y, x); ok {
				return c
			}
			return y.exact().room(y.speed).Cmp(x.exact().room(x.speed))
		}
		// Grown fill, smallest first.
		if c, ok := x.grown.Cmp(y.grown); ok {
			return c
		}
		return cmpFills(x.exact(), ceilDiv(t.WCET, x.speed), y.exact(), ceilDiv(t.WCET, y.speed), t.Period)
	})
}

// trial decides whether bin b, which passed the gate, can also take the
// scaled task st. The incremental certificate settles the trial when it
// can: it accepts only sets whose exact demand fits the processor, which
// the eligible cascade accepts too. It needs grown utilization strictly
// below 1; otherwise, and whenever it cannot accept, the analyzer runs
// on the tentative bin.
func (p *placer) trial(b *bin, st model.Task) analysis {
	p.stats.BinChecks++
	if p.certify && b.below {
		if ok, _ := b.cert.Check(workload.SporadicTask(st)); ok {
			return analysis{res: core.Result{Verdict: core.Feasible}}
		}
	}
	// The spare capacity of scaled holds the tentative bin; admit keeps
	// it, a rejection leaves it to be overwritten.
	tent := append(b.scaled, st)
	p0 := p.opt.Scratch.ArithPromotions()
	start := time.Now()
	res := p.analyzer.Analyze(tent, p.opt)
	wall := time.Since(start)
	p.stats.Promotions += p.opt.Scratch.ArithPromotions() - p0
	return analysis{res: res, wall: int64(wall), ran: true}
}

// admit places task ti, scaled to st, on processor j, whose trial a
// decided.
func (p *placer) admit(j, ti int, st model.Task, a analysis) {
	b := &p.bins[j]
	b.tasks = append(b.tasks, ti)
	b.scaled = append(b.scaled, st)
	b.util = b.grown
	b.setRoom()
	b.last = a
	b.summed = false
	if p.certify {
		b.cert.Admit(workload.SporadicTask(st))
	}
	p.asg[ti] = j
}

// finalReports reports each final bin. The cache serves bins it has
// seen; a bin whose last admitted trial ran the analyzer reports that
// run, the analyzer's own verdict on exactly this bin; the bins the
// certificate decided run in one batch through the engine's worker pool.
// Only final bins are fingerprinted, so a bin verdict is reused across
// requests and, through the proxy's fingerprint routing, across the
// fleet.
func (p *placer) finalReports(ctx context.Context) ([]ProcessorReport, error) {
	reports := make([]ProcessorReport, len(p.bins))
	var jobs []engine.Job
	var idx []int
	for j := range p.bins {
		b, r := &p.bins[j], &reports[j]
		*r = ProcessorReport{
			Index:            j,
			Name:             p.wl.Processors[j].Name,
			Speed:            b.speed,
			Verdict:          core.Feasible.String(),
			UtilizationExact: "0",
		}
		if len(b.tasks) == 0 {
			continue
		}
		r.Tasks = slices.Clone(b.tasks)
		r.Utilization, r.UtilizationExact = b.exact().report()
		if key, ok := engine.Fingerprint(b.scaled, p.name, p.cfg.Options); ok {
			r.Fingerprint = key
			if p.cfg.Cache != nil {
				if res, hit := p.cfg.Cache.Get(key); hit {
					p.stats.BinChecks++
					p.stats.CacheHits++
					r.Verdict = res.Verdict.String()
					r.Iterations = res.Iterations
					r.CacheHit = true
					continue
				}
			}
		}
		if !b.last.ran {
			jobs = append(jobs, engine.Job{Set: b.scaled, Analyzer: p.analyzer, Opt: p.cfg.Options})
			idx = append(idx, j)
		}
	}
	if len(jobs) > 0 {
		results := engine.Run(ctx, jobs, engine.RunOptions{Workers: p.cfg.Workers})
		for ri, jr := range results {
			if jr.Err != nil {
				return nil, jr.Err
			}
			p.stats.Promotions += jr.Promotions
			p.bins[idx[ri]].last = analysis{res: jr.Result, wall: int64(jr.Wall), ran: true}
		}
	}
	for j := range reports {
		b, r := &p.bins[j], &reports[j]
		if len(b.tasks) == 0 || r.CacheHit {
			continue
		}
		p.stats.BinChecks++
		r.Verdict = b.last.res.Verdict.String()
		r.Iterations = b.last.res.Iterations
		r.WallNS = b.last.wall
		if p.cfg.Cache != nil && r.Fingerprint != "" {
			p.cfg.Cache.Put(r.Fingerprint, b.last.res)
		}
	}
	return reports, nil
}
