// Package numeric provides the exact arithmetic of the feasibility tests
// and bounds.
//
// All task parameters (execution times, deadlines, periods) are integer time
// units, so the exact demand bound function dbf is pure int64 arithmetic.
// The approximated tests and the feasibility bounds however accumulate
// rational slopes C/T. Every such accumulator of a walk runs on Chunked
// registers, one exact representation for every analysis. A comparison
// that a fixed-point bracket settles needs no accumulator: UtilSum
// decides a utilization against 1 and Devi's prefix conditions (see
// Utilization against 1).
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
// 2^62. First-fit depends only on the order of the denominators, so
// Plan.Rebuild keeps the fold of the prefix a new denominator key shares
// with the previous one and folds only the tail; Build is Rebuild with
// nothing shared. A Chunked value is then one int64 numerator per chunk over that
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
// Plan, so the count measures the walks and bounds that left the fast
// path, and the comparisons a bracket could not decide. When Plan.Build
// cannot cover the denominators at all — more mutually incompatible
// periods than MaxChunks, e.g. many pairwise-coprime periods above
// 2^31 — the plan stays empty and every
// register bound to it promotes on its first fraction. The big.Rat
// reference arithmetic of the analyzers binds its registers to an empty
// plan on purpose, so it runs the same walks with every fraction in
// math/big. Scratch owners surface the promotion tally as
// ArithPromotions, which feeds the edfd_arith_promotions_total counter
// and per-stage trace attribution: a fleet where the counter moves is
// running workloads off the fast path, which is an observable capacity
// signal rather than a silent slowdown.
//
// # Utilization against 1
//
// UtilSum keeps a sum of utilizations as a 128-bit fixed-point lower
// bound plus a count of truncated terms, which brackets the exact value
// within 2^-128 per term: every comparison with 1 is decided by integer
// arithmetic, a few divisions per term whether or not a plan covers the
// periods, except for sums that close to 1, where the caller compares
// exactly on chunk registers. UtilSum.Cmp orders two sums the same way,
// undecided only where their brackets overlap, and UtilSum.CmpMulAdd
// compares u·d + g + b with d, undecided only where the bracket of that
// value holds d; CmpOne is its case d = 1, g = b = 0. Four callers use
// the brackets. An admission session's gate lives across proposals
// whose periods nobody knows in advance, so no chunk plan fits it and
// the session keeps a running UtilSum. Every
// analyzer stage opens with U against 1, which
// demand.Scratch.UtilCmpOne decides on a fresh UtilSum over the stage's
// sources, building no plan unless the bracket cannot decide; the
// math/big reference keeps the exact register sum there, so it stays
// independent of the bracket. Partitioned placement keeps a UtilSum per
// processor beside its exact fill, a 64-bit fraction of its own (math/big
// where that overflows): the bracket decides the utilization gate and the
// heuristics' bin rankings, and the fraction only what the bracket
// cannot, so no placement builds a chunk plan; demand.Scratch owns the
// only plans outside this package. Devi's test keeps two UtilSums over its
// deadline-ordered prefix, the utilization and the gap terms
// (T - D)·C/T (UtilSum.AddMul forms their numerators in 128 bits), and
// decides each prefix condition with CmpMulAdd; only a prefix that close
// to equality re-runs the test on chunk registers. The session's other
// sum, the incremental anchor rebuild, is a one-shot walk over a known
// source set and runs on a Scratch's registers like any analysis.
//
// The package also contains overflow-checked int64 helpers (gcd, lcm,
// checked multiplication/addition) shared by the bounds and demand
// packages.
package numeric
