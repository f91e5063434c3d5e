// Package demand implements the processor-demand machinery of the paper:
// the exact demand bound function dbf (Definition 2), the approximated
// demand bound function dbf' of the superposition approach (Definitions 4
// and 5), the approximation error app (Lemma 6) and the test-interval
// iteration order (a heap and a loser tree over absolute job deadlines).
//
// The feasibility algorithms in internal/core do not operate on tasks
// directly but on one concrete source type defined here, Uniform: a demand
// curve whose job deadlines are equidistant. A sporadic task is one
// Uniform; a Gresser event-stream task decomposes into one Uniform per
// event stream element (see internal/eventstream), which is exactly how
// the paper proposes to extend the tests to the event stream model.
package demand
