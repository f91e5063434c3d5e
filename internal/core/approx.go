package core

import (
	"repro/internal/demand"
)

// approxTracker is the "ApproxList" of the paper's pseudocode: the set of
// currently approximated sources in insertion order. Only sources with a
// positive approximation slope are tracked — a zero-slope (one-shot) source
// is exact under approximation, so revising it can never reduce the
// approximated demand. Its buffers live in the analysis Scratch, so a
// reused Scratch makes the tracker allocation-free.
type approxTracker struct {
	order []int  // approximated source indices, oldest first
	in    []bool // membership by source index
}

func newApproxTracker(s *demand.Scratch, n int) approxTracker {
	return approxTracker{order: s.Ints(n), in: s.Bools(n)}
}

func (a *approxTracker) empty() bool { return len(a.order) == 0 }

func (a *approxTracker) add(src int) {
	if !a.in[src] {
		a.in[src] = true
		a.order = append(a.order, src)
	}
}

func (a *approxTracker) removeAt(pos int) int {
	src := a.order[pos]
	a.order = append(a.order[:pos], a.order[pos+1:]...)
	a.in[src] = false
	return src
}

// pick selects the next source to revise at interval I according to the
// revision order and removes it from the tracker.
func (a *approxTracker) pick(order RevisionOrder, srcs []demand.Uniform, I int64) (int, bool) {
	if a.empty() {
		return 0, false
	}
	switch order {
	case ReviseLIFO:
		return a.removeAt(len(a.order) - 1), true
	case ReviseMaxError:
		bestPos, bestErr := 0, -1.0
		for pos, src := range a.order {
			num, den := srcs[src].ApproxError(I)
			if e := float64(num) / float64(den); e > bestErr {
				bestPos, bestErr = pos, e
			}
		}
		return a.removeAt(bestPos), true
	default: // ReviseFIFO
		return a.removeAt(0), true
	}
}

// accountedDemand returns Σ jobs[i]·C_i, the exact demand accounted for
// when no source is approximated. It is the reference value used to confirm
// rejections exactly.
func accountedDemand(srcs []demand.Uniform, jobs []int64) int64 {
	var sum int64
	for i, s := range srcs {
		sum += jobs[i] * s.C
	}
	return sum
}
