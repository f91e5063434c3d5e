// Package core implements the feasibility tests for preemptive uniprocessor
// EDF scheduling that the paper presents, improves on, or compares against:
//
//   - LiuLayland: the classic utilization bound for implicit deadlines [12].
//   - Devi: the sufficient test of Devi (Definition 1) [9].
//   - ProcessorDemand: the exact test of Baruah et al. (Definition 3) [3].
//   - SuperPos: the superposition approximation SuperPos(x) of Albers &
//     Slomka (Definitions 4-6, Lemma 1) [1].
//   - DynamicError: the paper's first new exact test (Section 4.1, Fig. 5).
//   - AllApprox: the paper's second new exact test (Section 4.2, Fig. 7).
//   - QPA: Quick Processor-demand Analysis (Zhang & Burns 2009), included
//     as a post-paper exact baseline for the ablation benchmarks.
//
// Every test returns a Result carrying the verdict and the number of
// checked test intervals ("iterations"), the metric the paper's evaluation
// uses. Every rational accumulator — utilization checks, the approximated
// demand of the superposition tests, Devi's prefix sums and the
// feasibility bounds — runs in one exact arithmetic, the bounded-
// denominator chunk registers of the analysis Scratch (numeric.Chunked),
// so no verdict is ever a rounding artifact. Options.Arithmetic only
// selects the math/big reference (ArithBigRat) the registers are tested
// against.
//
// The iterative tests operate on demand.Source values, so they apply
// unchanged to sporadic task sets and to Gresser event streams
// (internal/eventstream), the extension Section 2 of the paper promises.
package core
