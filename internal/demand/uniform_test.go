package demand

import (
	"math/rand"
	"testing"

	"repro/internal/model"
)

// TestUniformMatchesSporadic asserts that a Uniform built from a task
// follows the closed-form demand of a sporadic task (C, D, T) in the
// synchronous arrival sequence: deadlines D + (k-1)·T, floor((I-D)/T)+1
// jobs up to I >= D, slope C/T and error C·((I-D) mod T)/T.
func TestUniformMatchesSporadic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		tk := model.Task{
			WCET:     1 + r.Int63n(50),
			Deadline: 1 + r.Int63n(500),
			Period:   1 + r.Int63n(500),
		}
		C, D, T := tk.WCET, tk.Deadline, tk.Period
		un := UniformFromTask(tk)
		if un.C != C {
			t.Fatalf("C = %d for %+v", un.C, tk)
		}
		if n, d := un.UtilRat(); n*T != C*d {
			t.Fatalf("UtilRat = %d/%d for %+v, want %d/%d", n, d, tk, C, T)
		}
		for k := int64(1); k <= 5; k++ {
			if got, want := un.JobDeadline(k), D+(k-1)*T; got != want {
				t.Fatalf("JobDeadline(%d) = %d for %+v, want %d", k, got, tk, want)
			}
		}
		for j := 0; j < 20; j++ {
			I := r.Int63n(3000)
			var jobs, errNum, next int64
			if I >= D {
				jobs = (I-D)/T + 1
				errNum = C * ((I - D) % T)
				next = D + jobs*T
			} else {
				next = D
			}
			if got := un.JobsUpTo(I); got != jobs {
				t.Fatalf("JobsUpTo(%d) = %d for %+v, want %d", I, got, tk, jobs)
			}
			if got := un.DemandUpTo(I); got != jobs*C {
				t.Fatalf("DemandUpTo(%d) = %d for %+v, want %d", I, got, tk, jobs*C)
			}
			if an, ad := un.ApproxError(I); an*T != errNum*ad {
				t.Fatalf("ApproxError(%d) = %d/%d for %+v, want %d/%d", I, an, ad, tk, errNum, T)
			}
			if got := un.NextDeadline(I); got != next {
				t.Fatalf("NextDeadline(%d) = %d for %+v, want %d", I, got, tk, next)
			}
		}
	}
}

// TestUniformOneShot pins the Sep == 0 semantics: one job, zero slope,
// exact approximation.
func TestUniformOneShot(t *testing.T) {
	u := Uniform{C: 7, First: 30}
	if n, d := u.UtilRat(); n != 0 || d <= 0 {
		t.Fatalf("one-shot UtilRat = %d/%d, want 0 slope", n, d)
	}
	if got := u.JobDeadline(1); got != 30 {
		t.Fatalf("JobDeadline(1) = %d", got)
	}
	if got := u.JobDeadline(2); got != MaxInterval {
		t.Fatalf("JobDeadline(2) = %d, want MaxInterval", got)
	}
	if got := u.NextDeadline(29); got != 30 {
		t.Fatalf("NextDeadline(29) = %d", got)
	}
	if got := u.NextDeadline(30); got != MaxInterval {
		t.Fatalf("NextDeadline(30) = %d, want MaxInterval", got)
	}
	if got := u.DemandUpTo(29); got != 0 {
		t.Fatalf("DemandUpTo(29) = %d", got)
	}
	if got := u.DemandUpTo(1 << 60); got != 7 {
		t.Fatalf("DemandUpTo(huge) = %d", got)
	}
	if n, _ := u.ApproxError(1 << 60); n != 0 {
		t.Fatalf("one-shot ApproxError num = %d, want 0", n)
	}
}
