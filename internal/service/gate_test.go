package service

import (
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// gateNearOne returns three sporadic tasks over pairwise-coprime prime
// periods just above 2^45, with numerators from modular inverses, whose
// utilizations sum to exactly 1 + sign/(p·q·r): closer to 1 than the
// fixed-point gate's 2^-128 per term, so only the exact fallback places
// the sum.
func gateNearOne(sign int64) []model.Task {
	var primes []int64
	for v := int64(1<<45) + 1; ; v += 2 {
		if !big.NewInt(v).ProbablyPrime(20) {
			continue
		}
		primes = append(primes, v)
		if len(primes) < 3 {
			continue
		}
		periods := []int64{primes[0], primes[1], v}
		ts := make([]model.Task, 3)
		sum := new(big.Rat)
		for i, p := range periods {
			others := big.NewInt(1)
			for j, q := range periods {
				if j != i {
					others.Mul(others, big.NewInt(q))
				}
			}
			d := big.NewInt(p)
			c := new(big.Int).ModInverse(others.Mod(others, d), d)
			if sign < 0 {
				c.Sub(d, c)
			}
			ts[i] = model.Task{WCET: c.Int64(), Deadline: p, Period: p}
			sum.Add(sum, big.NewRat(c.Int64(), p))
		}
		// The residues fix the sum to k ± 1/(pqr); keep a triple next to 1.
		if sum.Cmp(big.NewRat(3, 2)) < 0 {
			return ts
		}
	}
}

// gateTask draws a proposal whose utilization exercises the gate: small
// periods make exact-1 sums with truncated terms likely, wide ones
// reach the int64 range of the denominators.
func gateTask(r *rand.Rand) model.Task {
	var p int64
	switch r.Intn(3) {
	case 0:
		p = 2 + r.Int63n(11)
	case 1:
		p = 10 + r.Int63n(2000)
	default:
		p = 1<<40 + r.Int63n(1<<40)
	}
	c := 1 + r.Int63n(max(p/3, 1))
	d := p
	if r.Intn(3) == 0 {
		d = c + r.Int63n(2*p)
	}
	return model.Task{WCET: c, Deadline: d, Period: p}
}

// TestAdmissionGateMatchesBigRat replays random sessions against a
// big.Rat shadow of the committed and pending utilization. For every
// proposal the gate must reject exactly when the grown exact sum exceeds
// 1, the certificate may accept only below 1, and the reported
// utilization must be the exact sum rounded to the nearest float64. The
// sessions include exact-1 sums with truncated terms and crafted sums
// 1 ± 1/(pqr), which only the exact fallback places; a share runs the
// event model and a share NoIncremental.
func TestAdmissionGateMatchesBigRat(t *testing.T) {
	one := big.NewRat(1, 1)
	var undecided, gated, fast int
	for seq := range 240 {
		r := rand.New(rand.NewSource(int64(seq)))
		events := seq%3 == 2
		var tasks []model.Task
		switch seq % 8 {
		case 0:
			tasks = append(gateNearOne(1), gateNearOne(-1)...)
		case 1:
			for _, p := range []int64{3, 7, 6} {
				for range p {
					tasks = append(tasks, model.Task{WCET: 1, Deadline: p, Period: p})
				}
			}
		}
		if events && seq%8 == 0 {
			// Event-model cascades at U ≈ 1 over 2^45 periods have no
			// cheap stage; the crafted sums run sporadic only.
			tasks = nil
		}
		for len(tasks) < 30 {
			tasks = append(tasks, gateTask(r))
		}
		cfg := AdmissionConfig{NoIncremental: seq%4 == 3}
		if events {
			cfg.Seed = workload.Workload{Model: workload.Events}
		}
		adm, err := NewAdmission(cfg)
		if err != nil {
			t.Fatal(err)
		}
		committed, pending := new(big.Rat), new(big.Rat)
		total := func() *big.Rat { return new(big.Rat).Add(committed, pending) }
		checkUtil := func(got float64, what string) {
			t.Helper()
			if want, _ := total().Float64(); got != want {
				t.Fatalf("seq %d %s: utilization %v, exact %v (%s)", seq, what, got, want, total().RatString())
			}
		}
		for i, m := range tasks {
			task := workload.SporadicTask(m)
			if events {
				task = workload.EventTask(eventstream.Task{
					WCET: m.WCET, Deadline: m.Deadline, Stream: eventstream.Periodic(m.Period),
				})
			}
			u := big.NewRat(m.WCET, m.Period)
			grown := new(big.Rat).Add(total(), u)
			if _, ok := adm.util.Add(m.WCET, m.Period).CmpOne(); !ok {
				undecided++
			}
			out, err := adm.ProposeTask(task)
			if err != nil {
				t.Fatal(err)
			}
			over := grown.Cmp(one) > 0
			if (out.Path == obs.PathGate) != over {
				t.Fatalf("seq %d task %d %+v: path %s with grown utilization %s", seq, i, m, out.Path, grown.RatString())
			}
			if out.Path == obs.PathFast && grown.Cmp(one) >= 0 {
				t.Fatalf("seq %d task %d: certificate accepted at grown utilization %s", seq, i, grown.RatString())
			}
			if over {
				gated++
			}
			if out.Path == obs.PathFast {
				fast++
			}
			if out.Admitted {
				pending.Add(pending, u)
			}
			checkUtil(out.Utilization, "propose")
			switch r.Intn(8) {
			case 0:
				committed.Add(committed, pending)
				pending.SetInt64(0)
				checkUtil(adm.Commit().Utilization, "commit")
			case 1:
				pending.SetInt64(0)
				checkUtil(adm.Rollback().Utilization, "rollback")
			}
		}
	}
	if undecided == 0 || gated == 0 || fast == 0 {
		t.Fatalf("%d undecided gate sums, %d gate rejections, %d certificate accepts: a path went untested",
			undecided, gated, fast)
	}
	t.Logf("%d proposals needed the exact fallback, %d were gated, %d certified", undecided, gated, fast)
}
