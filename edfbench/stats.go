package main

import (
	"bufio"
	"crypto/sha256"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0 < q <= 1) of the samples by the
// nearest-rank rule: the smallest sample with at least q·n samples at
// or below it. It sorts a copy, so callers keep their order. Zero
// samples yield 0.
func percentile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	return sortedPercentile(s, q)
}

// sortedPercentile is percentile over samples already in ascending order.
func sortedPercentile(s []int64, q float64) int64 {
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// beyond counts the samples strictly above the q-quantile — the support
// a reported percentile has in the tail.
func beyond(sorted []int64, q float64) int {
	p := sortedPercentile(sorted, q)
	i, _ := slices.BinarySearch(sorted, p+1)
	return len(sorted) - i
}

// median of float samples (mean of the middle pair for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// heapBaseline is the live-heap reading heap_live_mb subtracts: taken
// after input generation and before the daemons boot, so the benchmark's
// own inputs never count as program state.
type heapBaseline struct{ live uint64 }

// liveHeap forces a full collection (twice, so sync.Pool victim caches
// are dropped too) and returns the bytes still live.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// growthMB is the live heap now minus the baseline, in MB. It can be
// negative only when the program freed memory the baseline held.
func (b heapBaseline) growthMB(now uint64) float64 {
	return (float64(now) - float64(b.live)) / (1 << 20)
}

// cpuTime is the process's user+system CPU time (getrusage). Hypervisor
// steal is not charged to the process, so it stays out of CPU per op.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample holds the Go runtime counters the benchmark diffs over
// the timed phase.
type runtimeSample struct {
	allocBytes, allocs uint64
	gcCPU, totalCPU    float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ms := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ms[i].Name = n
	}
	metrics.Read(ms)
	return runtimeSample{
		allocBytes: ms[0].Value.Uint64(),
		allocs:     ms[1].Value.Uint64(),
		gcCPU:      ms[2].Value.Float64(),
		totalCPU:   ms[3].Value.Float64(),
	}
}

// gcShare is the share of the runtime's CPU time spent in the garbage
// collector between two samples.
func gcShare(a, b runtimeSample) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: steal ticks and
// the total over all states. ok is false where the file is unavailable.
func cpuTicks() (steal, total uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, fld := range fields[1:] {
		v, err := strconv.ParseUint(fld, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		// guest and guest_nice (fields 9, 10) are already counted in user
		// and nice.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stealShare is the host's steal ticks over all ticks between two
// /proc/stat readings, or -1 when unavailable.
func stealShare(s0, t0, s1, t1 uint64, ok bool) float64 {
	if !ok || t1 <= t0 {
		return -1
	}
	return float64(s1-s0) / float64(t1-t0)
}

// calibrate times a fixed stdlib-only kernel — hashing and sorting a
// deterministic buffer — five times and returns the median in
// milliseconds, so a slow machine can be told apart from a slow program
// between runs.
func calibrate() float64 {
	times := make([]float64, 5)
	for i := range times {
		start := time.Now()
		calibrationKernel()
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e6
	}
	return median(times)
}

func calibrationKernel() {
	buf := make([]byte, 1<<16)
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for i := range buf {
		buf[i] = byte(next())
	}
	keys := make([]uint32, 1<<15)
	for round := range 6 {
		sum := sha256.Sum256(buf)
		buf[round] ^= sum[0]
		for i := range keys {
			keys[i] = next() ^ uint32(sum[i%32])
		}
		slices.Sort(keys)
	}
}
