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
// uses. Every comparison is exact, so no verdict is ever a rounding
// artifact. U against 1 (demand.Scratch.UtilCmpOne) and Devi's prefix
// conditions are decided on 128-bit fixed-point brackets
// (numeric.UtilSum), which build no chunk plan; where a bracket cannot
// decide, and in every walk accumulator — the approximated demand of the
// superposition tests and the feasibility bounds — the arithmetic is the
// bounded-denominator chunk registers of the analysis Scratch
// (numeric.Chunked), bound to the set's plan when the walk starts.
// Options.Arithmetic only selects the math/big reference (ArithBigRat)
// the registers and the brackets are tested against.
//
// The iterative tests walk []demand.Uniform, one concrete source type for
// both activation models: a sporadic task is one source, and a Gresser
// event stream (internal/eventstream) is one source per element, the
// extension Section 2 of the paper promises.
package core
