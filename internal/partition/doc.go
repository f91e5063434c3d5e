// Package partition places partitioned multiprocessor workloads onto
// processors and proves each placement feasible with the uniprocessor
// feasibility tests the rest of the tree already trusts.
//
// # Design
//
// Partitioned multiprocessor EDF reduces to bin packing (Bonifaci &
// Marchetti-Spaccamela): assign every task to exactly one processor so
// that each processor's task set passes a uniprocessor EDF feasibility
// test. Bin packing is NP-hard, so Place runs classic heuristics —
// first-fit, worst-fit and utilization-balancing, all in decreasing
// utilization order — and returns the first placement any of them can
// prove feasible, or a counterexample naming the task no heuristic could
// place together with its per-processor rejection trail.
//
// Heterogeneous speeds are handled by scaling: a task with WCET C on a
// processor of relative speed s contributes ceil(C/s) execution units
// (critical sections and self-suspensions scale the same way), so every
// bin is analyzed as a plain sporadic set on a unit-speed processor.
// The ceiling keeps the scaling conservative — a feasible verdict for
// the scaled bin is sound for the real processor — and makes unit-speed
// bins byte-identical to ordinary sporadic sets.
//
// # Candidate ordering and the utilization gate
//
// For each task the candidate processors are filtered first by affinity,
// then by the O(1) utilization gate: a bin whose scaled utilization
// would exceed 1 cannot be feasible and is rejected without running any
// test. Surviving candidates are ordered by the active heuristic
// (first-fit: lowest index; worst-fit: most remaining capacity
// speed·(1−fill); balance: lowest resulting fill — the two differ only
// on heterogeneous platforms) and the task lands on the first candidate
// whose extended bin is proven feasible. Candidates are tried lazily in
// rank order: a scan picks the best remaining candidate, and the next
// one only after a rejection, first in processor order among equals, so
// the trials follow the order a stable sort of the candidates would
// give for the one or two trials a task usually needs. A task that
// fails everywhere carries every candidate's verdict in its rejection
// trail.
//
// Brackets decide the gate and the rankings. Each bin keeps its fill as a
// numeric.UtilSum, a 128-bit fixed-point lower bound plus a count of
// truncated terms, and grows it by the task at hand once per task. The
// task's term, ceil(C/speed)/T as a one-term UtilSum, is computed once
// per distinct speed of the platform, and each bin of that speed adds it
// with UtilSum.Plus, bit-identical to adding the fraction itself:
// integer additions per candidate, no division. UtilSum.CmpOne settles
// the gate and UtilSum.Cmp the rankings. Candidates of equal speed rank
// by their fills alone, since the task adds the same fraction to each;
// balance compares the grown fills across speeds. Worst-fit across
// speeds compares speed·(1−fill), estimated once per admission in
// float64 from the bracket, with an error bound of speed·2^-50: two
// estimates further apart than their bounds decide.
//
// Exact fills decide the rest. A grown fill within its truncation of 1
// (three tasks of utilization 1/3), two brackets that overlap (1/6 + 1/3
// against 1/2) and two capacity estimates within their bounds (a speed-2
// bin at fill 1/2 against an empty speed-1 bin) are compared on the bins'
// exact fills, so every decision and every tie broken by index is the
// exact one. A bin's exact fill is summed over its scaled tasks the first
// time such a comparison, or its report, needs it: a uint64 fraction in
// lowest terms, moved to math/big only when a partial sum overflows.
// Two fills, two fills each grown by the task at hand, or a grown fill
// and 1 compare by 128-bit cross products, and worst-fit's capacities
// speed·(1−fill) across speeds by 192-bit ones; neither allocates nor
// wraps. math/big decides only where a fraction overflows. The placement
// builds no chunk plan and promotes nothing.
//
// # Trials on the incremental certificate
//
// Each processor keeps an incremental.State over its scaled bin — the
// O(delta) certificate admission sessions use. A trial that passes the
// gate with grown fill strictly below 1 runs State.Check first; only
// when the certificate cannot accept (or the fill is exactly 1) does the
// configured analyzer run, directly on the tentative bin with one
// Scratch the placement owns. An accepted task is folded into the state
// with State.Admit, not when it is admitted but just before the bin's
// next Check, in admission order, so the state a Check reads is the one
// eager folds would have built, and a bin that is never checked again
// folds nothing more. State.Reset empties the states for the next
// heuristic. The certificate accepts only sets whose exact demand fits
// the processor, and under incremental.Eligible options the cascade is
// exact, so every trial decides exactly as a full analyzer run would.
// Configurations that are not eligible — another analyzer, blocking,
// iteration or level caps, a forced bound — run the analyzer on every
// trial.
//
// # Reporting the final bins
//
// Every reported verdict is exact on exactly the final bin. A final bin
// reports the trial that admitted its last task, which decided the bin
// as it stands: an analyzer run reports its verdict, iterations and wall
// time; a certificate acceptance reports "feasible" with the
// certificate's checked test points as its iterations and no wall time,
// as a session's certificate accept does. No bin is analyzed a second
// time, fingerprinted or looked up in a cache, and the whole placement
// runs on the calling goroutine. Config.Workers and Config.Cache are
// deprecated and ignored, and Stats.CacheHits reads 0.
//
// A bin's reported fill, Σ ceil(C/speed)/T, is the same exact fill that
// decides the comparisons, printed as big.Rat would print it, with the
// float64 nearest it.
package partition
