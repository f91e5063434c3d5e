// Package numeric provides the exact arithmetic of the feasibility tests
// and bounds.
//
// All task parameters (execution times, deadlines, periods) are integer time
// units, so the exact demand bound function dbf is pure int64 arithmetic.
// The utilization checks, the approximated tests and the feasibility
// bounds however accumulate rational slopes C/T. Every such accumulator
// runs on Chunked registers, one exact representation for every analysis.
//
// # Bounded-denominator chunked values
//
// A single int64 numerator/denominator pair degrades on wide period
// spreads: log-uniform periods across several decades make the running
// denominator lcm overflow int64 within a few accumulations, and from
// then on every addition pays a big.Rat allocation. Chunked removes that
// cliff by bounding denominators up front instead of discovering
// overflow per operation.
//
// Plan.Build inspects the full set of source denominators before the
// walk starts and folds them greedily (first-fit) into at most MaxChunks
// chunk denominators, each the lcm of its members and each capped below
// 2^62. A Chunked value is then one int64 numerator per chunk over that
// fixed denominator vector: adding a slope touches exactly one chunk,
// comparisons against an integer bound cross-multiply chunk-by-chunk
// with 128-bit intermediates, and nothing allocates — regardless of how
// the periods are spread. The spread-period benchmark shapes run at
// 0 allocs/op on this representation.
//
// Promotion is the escape hatch, not the common case. A Chunked value
// promotes to an embedded big.Rat when a numerator overflows its chunk
// or a fraction's denominator divides no chunk; from then on it computes
// in math/big and stays exact. Every promotion is counted on the owning
// Plan. When Plan.Build cannot cover the denominators at all — more
// mutually incompatible periods than MaxChunks, e.g. many
// pairwise-coprime periods above 2^31 — the plan stays empty and every
// register bound to it promotes on its first fraction. The big.Rat
// reference arithmetic of the analyzers binds its registers to an empty
// plan on purpose, so it runs the same walks with every fraction in
// math/big. Scratch owners surface the promotion tally as
// ArithPromotions, which feeds the edfd_arith_promotions_total counter
// and per-stage trace attribution: a fleet where the counter moves is
// running workloads off the fast path, which is an observable capacity
// signal rather than a silent slowdown.
//
// # Session sums
//
// Fast is an int64 numerator/denominator rational that promotes to
// big.Rat on overflow and demotes when the value fits again. Its one job
// is the running sums of an admission session (the utilization gate and
// the incremental anchor rebuild), which outlive any single analysis and
// therefore any per-analysis chunk plan.
//
// The package also contains overflow-checked int64 helpers (gcd, lcm,
// checked multiplication/addition) shared by the bounds and demand
// packages.
package numeric
