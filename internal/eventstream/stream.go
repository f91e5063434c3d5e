package eventstream

import (
	"fmt"
	"math/big"

	"repro/internal/demand"
	"repro/internal/model"
	"repro/internal/numeric"
)

// Element is one event stream element (cycle z, offset a): events occur at
// a, a+z, a+2z, ... A zero cycle denotes a single event at the offset.
type Element struct {
	Cycle  int64 `json:"cycle"`  // 0 = one-shot
	Offset int64 `json:"offset"` // >= 0
}

// Validate reports the first structural problem of the element.
func (e Element) Validate() error {
	switch {
	case e.Cycle < 0:
		return fmt.Errorf("eventstream: cycle %d must be non-negative", e.Cycle)
	case e.Offset < 0:
		return fmt.Errorf("eventstream: offset %d must be non-negative", e.Offset)
	}
	return nil
}

// Stream is an event stream: a set of elements whose superposition bounds
// the event arrivals of one task.
type Stream []Element

// Validate reports the first structural problem of the stream.
func (s Stream) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("eventstream: empty stream")
	}
	for i, e := range s {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("element %d: %w", i, err)
		}
	}
	return nil
}

// Events returns the event bound function η(I): the maximal number of
// events within any interval of length I (I >= 0).
func (s Stream) Events(I int64) int64 {
	var n int64
	for _, e := range s {
		if I < e.Offset {
			continue
		}
		if e.Cycle == 0 {
			n++
			continue
		}
		n += (I-e.Offset)/e.Cycle + 1
	}
	return n
}

// Utilization returns the asymptotic event density Σ 1/cycle (one-shot
// elements contribute nothing) as an exact rational.
func (s Stream) Utilization() *big.Rat {
	u := new(big.Rat)
	for _, e := range s {
		if e.Cycle > 0 {
			u.Add(u, big.NewRat(1, e.Cycle))
		}
	}
	return u
}

// Periodic returns the stream of a strictly periodic activation.
func Periodic(period int64) Stream { return Stream{{Cycle: period}} }

// Burst returns the stream of a periodically repeating burst: count events
// spaced by spacing time units, the whole pattern repeating every period.
// This is the bursty shape of Figure 4(b) of the paper.
func Burst(period int64, count int, spacing int64) Stream {
	s := make(Stream, 0, count)
	for i := range count {
		s = append(s, Element{Cycle: period, Offset: int64(i) * spacing})
	}
	return s
}

// Sporadic returns the stream equivalent of a sporadic task with the given
// minimal inter-arrival distance.
func Sporadic(t model.Task) Stream { return Periodic(t.Period) }

// Task is an event-driven task: every event of the stream releases a job
// with the given execution demand and relative deadline.
type Task struct {
	Name     string `json:"name,omitempty"`
	Stream   Stream `json:"stream"`
	WCET     int64  `json:"wcet"`
	Deadline int64  `json:"deadline"`
}

// Validate reports the first structural problem of the task.
func (t Task) Validate() error {
	switch {
	case t.WCET <= 0:
		return fmt.Errorf("eventstream: task %q: WCET %d must be positive", t.Name, t.WCET)
	case t.Deadline <= 0:
		return fmt.Errorf("eventstream: task %q: deadline %d must be positive", t.Name, t.Deadline)
	}
	if err := t.Stream.Validate(); err != nil {
		return fmt.Errorf("eventstream: task %q: %w", t.Name, err)
	}
	for i, e := range t.Stream {
		if _, ok := numeric.AddChecked(e.Offset, t.Deadline); !ok {
			return fmt.Errorf("eventstream: task %q: element %d: offset %d plus deadline %d overflows int64", t.Name, i, e.Offset, t.Deadline)
		}
	}
	return nil
}

// Dbf returns the exact demand bound of the task: WCET times the events
// whose release and deadline fit into I.
func (t Task) Dbf(I int64) int64 {
	if I < t.Deadline {
		return 0
	}
	return t.Stream.Events(I-t.Deadline) * t.WCET
}

// AppendSources lowers the task into demand sources, one per stream
// element (first deadline offset + relative deadline, separation cycle),
// and appends them to dst. The task must pass Validate, which guarantees
// every first deadline is positive and fits in int64.
func (t Task) AppendSources(dst []demand.Uniform) []demand.Uniform {
	for _, e := range t.Stream {
		dst = append(dst, demand.Uniform{C: t.WCET, First: e.Offset + t.Deadline, Sep: e.Cycle})
	}
	return dst
}

// Sources decomposes the event-driven tasks into demand sources, one per
// stream element, ready for the feasibility tests of internal/core.
func Sources(tasks []Task) []demand.Uniform {
	n := 0
	for _, t := range tasks {
		n += len(t.Stream)
	}
	srcs := make([]demand.Uniform, 0, n)
	for _, t := range tasks {
		srcs = t.AppendSources(srcs)
	}
	return srcs
}
