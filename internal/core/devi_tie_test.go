package core

// Near-tie tests of Devi's prefix condition: sets whose condition holds
// with equality, which no 128-bit bracket can decide, sets within
// 1/(p·q) of equality on periods near 2^45, far inside the bracket's
// band, and their neighbours one time unit away, which the bracket
// decides. Every result must equal the math/big reference's.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/demand"
	"repro/internal/model"
)

// refDevi evaluates Devi's test with blocking B on big.Rat, sharing no
// code with devi: the reference for ArithExact and ArithBigRat alike.
func refDevi(ts model.TaskSet, blocking func(int64) int64) Result {
	u := new(big.Rat)
	for _, t := range ts {
		u.Add(u, big.NewRat(t.WCET, t.Period))
	}
	if u.Cmp(big.NewRat(1, 1)) > 0 {
		return Result{Verdict: Infeasible, Iterations: 1}
	}
	cumU, cumGap := new(big.Rat), new(big.Rat)
	for k, t := range ts.SortedByDeadline() {
		cumU.Add(cumU, big.NewRat(t.WCET, t.Period))
		gap := new(big.Rat).SetInt64(t.Period - min(t.Period, t.Deadline))
		cumGap.Add(cumGap, gap.Mul(gap, big.NewRat(t.WCET, t.Period)))
		cond := new(big.Rat).Mul(cumU, new(big.Rat).SetInt64(t.Deadline))
		cond.Add(cond, cumGap)
		if blocking != nil {
			cond.Add(cond, new(big.Rat).SetInt64(blocking(t.Deadline)))
		}
		if cond.Cmp(new(big.Rat).SetInt64(t.Deadline)) > 0 {
			return Result{Verdict: NotAccepted, Iterations: int64(k + 1), FailureInterval: t.Deadline}
		}
	}
	return Result{Verdict: Feasible, Iterations: int64(len(ts))}
}

// prefixCond returns cumU·d + cumGap over the tasks, exactly.
func prefixCond(ts model.TaskSet, d int64) *big.Rat {
	cond := new(big.Rat)
	for _, t := range ts {
		term := new(big.Rat).SetInt64(d + t.Period - min(t.Period, t.Deadline))
		cond.Add(cond, term.Mul(term, big.NewRat(t.WCET, t.Period)))
	}
	return cond
}

// deviTie draws a set whose last prefix condition holds with equality:
// a random prefix on periods dividing 63, then a task whose deadline d
// makes the prefix's cumU·d + cumGap an integer p < d, with WCET d - p
// and a period T >= d, so that it adds exactly C. The prefix conditions
// before it hold, none with equality, and U <= 1.
func deviTie(rng *rand.Rand) model.TaskSet {
	periods := []int64{3, 7, 9, 21, 63}
	for {
		n := 1 + rng.Intn(4)
		ts := make(model.TaskSet, 0, n+1)
		var dmax int64
		for range n {
			p := periods[rng.Intn(len(periods))]
			c := 1 + rng.Int63n(max(1, p/int64(n+1)))
			d := c + rng.Int63n(p)
			ts = append(ts, model.Task{WCET: c, Deadline: d, Period: p})
			dmax = max(dmax, d)
		}
		if r, ok := deviBracket(demand.NewScratch().ByDeadline(ts), nil); !ok || r.Verdict != Feasible {
			continue
		}
		for d := dmax; d < dmax+126; d++ {
			p := prefixCond(ts, d)
			if !p.IsInt() || p.Num().Int64() >= d {
				continue
			}
			c := d - p.Num().Int64()
			// The smallest multiple of 63 with T >= d and C/T <= 1 - U.
			room := big.NewRat(1, 1)
			for _, t := range ts {
				room.Sub(room, big.NewRat(t.WCET, t.Period))
			}
			if room.Sign() <= 0 {
				break
			}
			tmin := new(big.Rat).Quo(new(big.Rat).SetInt64(c), room)
			T := max(d, tmin.Num().Int64()/tmin.Denom().Int64()+1)
			T = (T + 62) / 63 * 63
			tie := append(ts, model.Task{WCET: c, Deadline: d, Period: T})
			if r := refDevi(tie, nil); r.Verdict == Feasible && r.Iterations == int64(len(tie)) {
				return tie
			}
			break
		}
	}
}

// primeTie builds three tasks on primes p < q < r above 2^45 whose last
// prefix condition exceeds its deadline d = r - 1 by 1/(p·q) (sign 1) or
// falls short of it by as much (sign -1): about 2^-90, far inside the
// bracket's band of about 3·d·2^-128 = 2^-81. The first two WCETs are
// modular inverses that fix the fraction of their terms; the third task
// has D = d and T = r, so its term is exactly its WCET, which closes the
// integer part onto d.
func primeTie(t *testing.T, sign int64) model.TaskSet {
	t.Helper()
	var primes []int64
	for v := int64(1<<45) + 1; len(primes) < 3; v += 2 {
		if big.NewInt(v).ProbablyPrime(20) {
			primes = append(primes, v)
		}
	}
	p, q, r := primes[0], primes[1], primes[2]
	d := r - 1
	for g := int64(1); g < 400; g++ {
		gp, gq := g%20+1, g/20+1
		ts := model.TaskSet{{Deadline: p - gp, Period: p}, {Deadline: q - gq, Period: q}, {Deadline: d, Period: r}}
		// C_i·(d + g_i)·(other prime) ≡ sign (mod own prime).
		for i, other := range []int64{q, p} {
			own := ts[i].Period
			a := new(big.Int).Mul(big.NewInt(d+own-ts[i].Deadline), big.NewInt(other))
			c := new(big.Int).ModInverse(a.Mod(a, big.NewInt(own)), big.NewInt(own))
			if sign < 0 {
				c.Sub(big.NewInt(own), c)
			}
			ts[i].WCET = c.Int64()
		}
		if ts[0].WCET > ts[0].Deadline || ts[1].WCET > ts[1].Deadline {
			continue
		}
		two := prefixCond(ts[:2], d)
		k := new(big.Int).Quo(two.Num(), two.Denom()).Int64()
		ts[2].WCET = d - k
		if sign < 0 {
			ts[2].WCET--
		}
		if ts[2].WCET < 1 {
			continue
		}
		off := new(big.Rat).Sub(prefixCond(ts, d), new(big.Rat).SetInt64(d))
		if want := new(big.Rat).SetFrac(big.NewInt(sign), new(big.Int).Mul(big.NewInt(p), big.NewInt(q))); off.Cmp(want) != 0 {
			t.Fatalf("prime tie off its deadline by %s, want %s", off.RatString(), want.RatString())
		}
		want := Feasible
		if sign > 0 {
			want = NotAccepted
		}
		if ref := refDevi(ts, nil); ref.Verdict == want && ref.Iterations == 3 {
			return ts
		}
	}
	t.Fatalf("no prime tie with sign %d", sign)
	return nil
}

// checkTie asserts that the bracket walk cannot decide ts, that DeviOpt
// equals the math/big walk and the reference, and that each neighbour
// one time unit away is decided on the bracket with the same results.
func checkTie(t *testing.T, ts model.TaskSet, neighbours []model.TaskSet, what string) {
	t.Helper()
	sc := demand.NewScratch()
	if _, ok := deviBracket(sc.ByDeadline(ts), nil); ok {
		t.Fatalf("%s: the bracket decided a tie: %v", what, ts)
	}
	for i, set := range append([]model.TaskSet{ts}, neighbours...) {
		want := refDevi(set, nil)
		name := fmt.Sprintf("%s, set %d", what, i)
		compareResults(t, name, DeviOpt(set, Options{Scratch: sc}), want)
		compareResults(t, name+" (big.Rat)", DeviOpt(set, Options{Arithmetic: ArithBigRat}), want)
		if i > 0 {
			if r, ok := deviBracket(sc.ByDeadline(set), nil); !ok || r != want {
				t.Fatalf("%s: bracket (%+v, %v), reference %+v", name, r, ok, want)
			}
		}
	}
}

// TestDeviTiesMatchBigRat runs Devi on exact prefix ties over periods
// dividing 63 and on the prime near-ties, each next to the set whose
// last WCET moved one unit, which moves the condition one unit off its
// deadline (or, for the prime ties, 1 ± 1/(p·q)).
func TestDeviTiesMatchBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for i := range 300 {
		ts := deviTie(rng)
		last := len(ts) - 1
		var neighbours []model.TaskSet
		for _, move := range []int64{1, -1} {
			n := ts.Clone()
			n[last].WCET += move
			if n[last].WCET >= 1 && n[last].WCET <= n[last].Deadline {
				neighbours = append(neighbours, n)
			}
		}
		checkTie(t, ts, neighbours, fmt.Sprintf("tie %d", i))
	}
	for _, sign := range []int64{1, -1} {
		ts := primeTie(t, sign)
		moved := ts.Clone()
		moved[2].WCET += sign
		checkTie(t, ts, []model.TaskSet{moved}, fmt.Sprintf("prime tie %+d", sign))
	}
}

// TestDeviWithOverheadsMatchesBigRat compares DeviWithOverheads with the
// reference condition cumU·Dk + cumGap + B(Dk) <= Dk under SRP blocking:
// on random sets with critical sections and context switches, and on
// ties whose last WCET moved into a later task's critical section, where
// B(Dk) closes the condition onto equality.
func TestDeviWithOverheadsMatchesBigRat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	check := func(ts model.TaskSet, ov Overheads, what string) {
		t.Helper()
		inflated := InflateOverheads(ts, ov)
		compareResults(t, what, DeviWithOverheads(ts, ov), refDevi(inflated, SRPBlocking(inflated)))
	}
	for i := range 400 {
		ts := randomSporadicSet(rng, []int64{20, 1000, 1 << 40}[i%3])
		for j := range ts {
			ts[j].CriticalSection = rng.Int63n(ts[j].WCET + 1)
		}
		check(ts, Overheads{ContextSwitch: rng.Int63n(3)}, fmt.Sprintf("random %d", i))
	}
	ties := 0
	for i := range 300 {
		ts := deviTie(rng)
		last := len(ts) - 1
		beta := min(ts[last].WCET-1, 1+rng.Int63n(3))
		if beta < 1 {
			continue
		}
		ts[last].WCET -= beta
		later := model.Task{WCET: beta, Deadline: ts[last].Deadline + 1, Period: 63 * 64, CriticalSection: beta}
		ts = append(ts, later)
		inflated := InflateOverheads(ts, Overheads{})
		if _, ok := deviBracket(demand.NewScratch().ByDeadline(inflated), SRPBlocking(inflated)); !ok {
			ties++
		}
		check(ts, Overheads{}, fmt.Sprintf("blocked tie %d", i))
	}
	if ties < 100 {
		t.Fatalf("only %d blocked ties left the bracket undecided", ties)
	}
}
