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
// rank order; a task that fails everywhere carries every candidate's
// verdict in its rejection trail.
//
// Brackets decide the gate and the rankings. Each bin keeps its fill as a
// numeric.UtilSum, a 128-bit fixed-point lower bound plus a count of
// truncated terms, and grows it by the task at hand once per task:
// UtilSum.CmpOne settles the gate and UtilSum.Cmp the rankings, a few
// integer operations per candidate and comparison. Candidates of equal
// speed rank by their fills alone, since the task adds the same fraction
// to each; balance compares the grown fills across speeds. Worst-fit
// across speeds compares speed·(1−fill), estimated once per admission in
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
// and 1 compare by 128-bit cross products, which neither allocate nor
// wrap. math/big decides only where a fraction overflows, and for
// worst-fit's capacities speed·(1−fill) across speeds, which none of the
// benchmarked placements reaches. The placement builds no chunk plan and
// promotes nothing.
//
// # Trials on the incremental certificate
//
// Each processor keeps an incremental.State over its scaled bin — the
// O(delta) certificate admission sessions use. A trial that passes the
// gate with grown fill strictly below 1 runs State.Check first; only
// when the certificate cannot accept (or the fill is exactly 1) does the
// configured analyzer run, directly on the tentative bin with one
// Scratch the placement owns. An accepted task is folded into the state
// with State.Admit, and State.Reset empties the states for the next
// heuristic. The certificate accepts only sets whose exact demand fits
// the processor, and under incremental.Eligible options the cascade is
// exact, so every trial decides exactly as a full analyzer run would.
// Configurations that are not eligible — another analyzer, blocking,
// iteration or level caps, a forced bound — run the analyzer on every
// trial.
//
// # Verification, caching and parallelism
//
// Every reported verdict and iteration count is the configured
// analyzer's own, on exactly the final bin. A bin whose last admitted
// trial ran the analyzer reports that run and its wall time; a bin whose
// last trial the certificate accepted is verified once more by the
// analyzer. Only final bins are content-addressed, with the sporadic
// fingerprint of their scaled task set — the same domain /v1/analyze
// uses — so an injected Cache (the service's sharded LRU satisfies the
// interface directly) serves repeated bins across requests and across
// the fleet via the proxy's fingerprint routing, and receives every
// verdict it did not serve. The bins left to verify run in one batch
// through the engine's worker pool, bounded by Config.Workers; the
// trials before them run on the calling goroutine.
//
// A bin's reported fill, Σ ceil(C/speed)/T, is the same exact fill that
// decides the comparisons, printed as big.Rat would print it, with the
// float64 nearest it.
package partition
