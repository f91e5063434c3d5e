package demand

import (
	"repro/internal/model"
	"repro/internal/numeric"
)

// MaxInterval is the sentinel for "no further deadline". It is never a
// valid test interval.
const MaxInterval = int64(numeric.MaxInt64)

// Uniform is one demand curve with equidistant steps, the unit the
// feasibility tests iterate over: a stream of jobs, each consuming C time
// units, whose k-th absolute deadline is First + (k-1)*Sep. Sep == 0
// denotes a one-shot source releasing a single job. A sporadic task is
// one Uniform (First = D, Sep = T); one event-stream element is another
// (First = offset + relative deadline, Sep = cycle).
//
// Its methods keep one contract the walks rely on:
//   - JobDeadline(1) > 0, JobDeadline is strictly increasing until it
//     returns MaxInterval, and once it returns MaxInterval it does so for
//     all larger k.
//   - DemandUpTo(I) == JobsUpTo(I) * C, saturating at MaxInterval.
//   - UtilRat is the asymptotic slope of DemandUpTo; for one-shot sources
//     it is 0 (num == 0) and then the linear approximation beyond the last
//     deadline is exact.
type Uniform struct {
	C     int64 // WCET per job (> 0)
	First int64 // first absolute deadline (> 0)
	Sep   int64 // deadline separation; 0 = one-shot
}

// UniformFromTask adapts a sporadic model task.
func UniformFromTask(t model.Task) Uniform {
	return Uniform{C: t.WCET, First: t.Deadline, Sep: t.Period}
}

// UtilRat returns the approximation slope C/Sep as a rational num/den
// with den > 0, or 0 for a one-shot source.
func (s Uniform) UtilRat() (num, den int64) {
	if s.Sep == 0 {
		return 0, 1
	}
	return s.C, s.Sep
}

// JobDeadline returns the absolute deadline First + (k-1)*Sep of the
// k-th job (k >= 1), or MaxInterval past the last job or on overflow.
func (s Uniform) JobDeadline(k int64) int64 {
	if k < 1 {
		return 0
	}
	if s.Sep == 0 {
		if k == 1 {
			return s.First
		}
		return MaxInterval
	}
	span, ok := numeric.MulChecked(k-1, s.Sep)
	if !ok {
		return MaxInterval
	}
	d, ok := numeric.AddChecked(s.First, span)
	if !ok {
		return MaxInterval
	}
	return d
}

// NextDeadline returns the smallest job deadline strictly greater than
// after, or MaxInterval.
func (s Uniform) NextDeadline(after int64) int64 {
	if after < s.First {
		return s.First
	}
	if s.Sep == 0 {
		return MaxInterval
	}
	return s.JobDeadline((after-s.First)/s.Sep + 2)
}

// JobsUpTo returns the number of jobs with deadline <= I.
func (s Uniform) JobsUpTo(I int64) int64 {
	if I < s.First {
		return 0
	}
	if s.Sep == 0 {
		return 1
	}
	return (I-s.First)/s.Sep + 1
}

// DemandUpTo returns the exact demand bound dbf(I) = JobsUpTo(I) * C,
// saturating at MaxInterval on overflow.
func (s Uniform) DemandUpTo(I int64) int64 {
	d, ok := numeric.MulChecked(s.JobsUpTo(I), s.C)
	if !ok {
		return MaxInterval
	}
	return d
}

// ApproxError returns app(I) = dbf'(I) - dbf(I) = C*((I-First) mod Sep)
// / Sep as a rational num/den (den > 0): the overshoot of the slope-C/Sep
// approximation anchored at any job deadline <= I over the exact step
// function (Lemma 6 of the paper: the error is independent of the
// anchor). It is 0 for I < First, and always 0 for one-shot sources,
// which the approximation models exactly.
func (s Uniform) ApproxError(I int64) (num, den int64) {
	if I < s.First || s.Sep == 0 {
		return 0, 1
	}
	r := (I - s.First) % s.Sep
	n, ok := numeric.MulChecked(s.C, r)
	if !ok {
		// C and r are both < 2^31 in any realistic workload; saturate
		// rather than corrupt the accumulator if a caller exceeds that.
		return MaxInterval, s.Sep
	}
	return n, s.Sep
}

// FromTasks adapts a task set to demand sources, ignoring phases
// (synchronous case), in one allocation; use Scratch.Sources to avoid
// even that across repeated analyses.
func FromTasks(ts model.TaskSet) []Uniform {
	srcs := make([]Uniform, len(ts))
	for i, t := range ts {
		srcs[i] = UniformFromTask(t)
	}
	return srcs
}
