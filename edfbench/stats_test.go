package main

import (
	"math"
	"runtime"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.1, 10}, {0.05, 10}, {1, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("p%v = %d, want %d", c.q*100, got, c.want)
		}
	}
	if s[0] != 50 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %d, want 7", got)
	}
}

func TestBeyondCountsTheTail(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := beyond(s, 0.99); got != 10 {
		t.Errorf("samples beyond p99 of 1..1000 = %d, want 10", got)
	}
	ties := []int64{1, 2, 3, 3, 3, 3, 3, 3, 3, 9}
	if got := beyond(ties, 0.5); got != 1 {
		t.Errorf("samples beyond a tied median = %d, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestHeapBaselineSubtraction(t *testing.T) {
	b := heapBaseline{live: 100 << 20}
	if got := b.growthMB(103<<20 + 1<<19); got != 3.5 {
		t.Errorf("growth = %v MB, want 3.5", got)
	}
	if got := b.growthMB(99 << 20); got != -1 {
		t.Errorf("shrink = %v MB, want -1", got)
	}
}

// TestLiveHeapExcludesGarbage pins why the baseline forces a GC: memory
// that is no longer referenced must not count as program state.
func TestLiveHeapExcludesGarbage(t *testing.T) {
	base := heapBaseline{liveHeap()}
	keep := make([]byte, 8<<20)
	for i := range keep {
		keep[i] = byte(i)
	}
	garbage := make([]byte, 32<<20)
	garbage[0] = 1
	runtime.KeepAlive(garbage)
	grown := base.growthMB(liveHeap())
	runtime.KeepAlive(keep)
	if grown < 7.5 || grown > 12 {
		t.Errorf("live growth %.2f MB, want about the 8 MB still referenced", grown)
	}
}

func TestStealShare(t *testing.T) {
	if got := stealShare(10, 1000, 30, 1200, true); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("steal share = %v, want 0.1", got)
	}
	if got := stealShare(0, 0, 0, 0, false); got != -1 {
		t.Errorf("unavailable steal share = %v, want -1", got)
	}
}

func TestGCShare(t *testing.T) {
	a := runtimeSample{gcCPU: 1, totalCPU: 10}
	b := runtimeSample{gcCPU: 2, totalCPU: 30}
	if got := gcShare(a, b); got != 0.05 {
		t.Errorf("gc share = %v, want 0.05", got)
	}
	if got := gcShare(b, b); got != 0 {
		t.Errorf("idle gc share = %v, want 0", got)
	}
}

// TestVsRef: CPU per request is compared segment by segment with the
// reference burst that followed it and the run reports the median ratio;
// latencies are scaled by their segment's reference p50 and pooled, so a
// slow host stretches both sides of a ratio.
func TestVsRef(t *testing.T) {
	seg := func(cpuMs, refCPU float64) segment {
		return segment{requests: 100, cpu: time.Duration(cpuMs * 100 * 1e6), ref: refSample{cpuPerOp: refCPU}}
	}
	ts := timedStats{segs: []segment{
		seg(0.30, 0.15), // 2.0
		seg(0.45, 0.15), // 3.0: a slow program
		seg(0.60, 0.30), // 2.0: a slow host
	}}
	if got := ts.cpuVsRef(); math.Abs(got-2) > 1e-9 {
		t.Errorf("cpuVsRef = %v, want 2", got)
	}
	if got := ts.cpuPerOp(); math.Abs(got-0.45) > 1e-9 {
		t.Errorf("cpuPerOp = %v, want 0.45", got)
	}
	ms := int64(time.Millisecond)
	ts.latVsRef = appendVsRef(nil, []int64{1 * ms, 2 * ms, 9 * ms}, refSample{p50: 1})
	ts.latVsRef = appendVsRef(ts.latVsRef, []int64{4 * ms, 5 * ms}, refSample{p50: 2}) // a slow host
	if got := ts.p50VsRef(); math.Abs(got-2) > 1e-9 {
		t.Errorf("p50VsRef = %v, want 2 (the median of 1, 2, 9, 2, 2.5)", got)
	}
}
