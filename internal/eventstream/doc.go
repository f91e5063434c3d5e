// Package eventstream implements the event stream model of Gresser (the
// paper's reference [11]), the more expressive task activation model the
// paper names as the natural extension target of its tests (Section 2:
// "Especially the extension for the event stream model is easy by
// following the definitions proposed in [1]").
//
// An event stream is a set of elements (cycle, offset); element (z, a)
// contributes events at times a, a+z, a+2z, ... (a single event when z is
// zero). The event bound function η(I) counts the maximal number of events
// in any interval of length I. A bursty activation pattern — the case
// Section 3.6 of the paper argues real-time calculus approximates poorly —
// is simply several elements sharing a long cycle with staggered offsets.
//
// Each element of a stream becomes one demand.Uniform ("each element of
// the burst has to be handled as a separate element of the event stream"),
// the same source type a sporadic task lowers to, so the iterative
// feasibility tests of internal/core run on event streams without
// modification. Task.AppendSources is the one lowering; Task.Validate
// rejects an element whose first deadline (offset plus the task's
// deadline) would not fit in int64.
package eventstream
