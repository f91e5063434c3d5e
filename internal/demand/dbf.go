package demand

import (
	"math/big"

	"repro/internal/model"
)

// Dbf returns the exact demand bound function dbf(I, Γ) over the sources:
// the maximal cumulated execution requirement of jobs with both release and
// deadline inside an interval of length I (Definition 2).
func Dbf(srcs []Source, I int64) int64 {
	var sum int64
	for _, s := range srcs {
		sum += s.DemandUpTo(I)
	}
	return sum
}

// DbfTask returns dbf(I, τ) for a single sporadic task.
func DbfTask(t model.Task, I int64) int64 { return NewSporadic(t).DemandUpTo(I) }

// DbfSet returns dbf(I, Γ) for a task set.
func DbfSet(ts model.TaskSet, I int64) int64 { return Dbf(FromTasks(ts), I) }

// ApproxDbfSource returns the approximated task demand bound function
// dbf'(I, s) of Definition 4 with the maximum exact test interval set to
// the level-th job deadline Im = JobDeadline(level): exact up to Im, then
// linear with slope UtilRat. The result is an exact rational.
func ApproxDbfSource(s Source, I int64, level int64) *big.Rat {
	im := s.JobDeadline(level)
	if I <= im || im == MaxInterval {
		return new(big.Rat).SetInt64(s.DemandUpTo(I))
	}
	num, den := s.UtilRat()
	r := new(big.Rat).SetInt64(s.DemandUpTo(im))
	lin := new(big.Rat).Mul(big.NewRat(num, den), new(big.Rat).SetInt64(I-im))
	return r.Add(r, lin)
}

// ApproxDbf returns the superposition dbf'(I, Γ) of Definition 5 at the
// given test level (the same level for every source, as in SuperPos(x)).
func ApproxDbf(srcs []Source, I int64, level int64) *big.Rat {
	sum := new(big.Rat)
	for _, s := range srcs {
		sum.Add(sum, ApproxDbfSource(s, I, level))
	}
	return sum
}
