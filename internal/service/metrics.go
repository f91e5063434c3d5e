package service

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"

	"repro/internal/obs"
)

// histBuckets is the number of log2 latency buckets: bucket i counts
// samples <= 2^i nanoseconds, and the last bucket absorbs everything
// beyond (~4.3 s) so no sample is ever dropped.
const histBuckets = 33

// latencyHist is a lock-free log2 histogram of nanosecond latencies. The
// exported form — cumulative "le" bucket counters — is summable across
// replicas, which is exactly how the proxy aggregates fleet quantiles;
// p50/p99 are derived at render time and never stored.
type latencyHist struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
}

// bucketOf maps a latency to its bucket index: the smallest i with
// ns <= 2^i.
func bucketOf(ns int64) int {
	if ns <= 1 {
		return 0
	}
	b := bits.Len64(uint64(ns - 1))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// observe records n samples of the same latency (n > 1 is the batch
// path, which spreads one request's wall time evenly over its tasks).
func (h *latencyHist) observe(ns int64, n int) {
	if n <= 0 {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.buckets[bucketOf(ns)].Add(uint64(n))
	h.count.Add(uint64(n))
	h.sum.Add(uint64(ns) * uint64(n))
}

// snapshot copies the bucket counters (non-cumulative).
func (h *latencyHist) snapshot() (b [histBuckets]uint64, count, sum uint64) {
	for i := range h.buckets {
		b[i] = h.buckets[i].Load()
	}
	return b, h.count.Load(), h.sum.Load()
}

// histQuantile returns the upper bound of the bucket holding the q-th
// sample — the same conservative estimate for one replica and for a
// summed fleet. Zero samples yield zero.
func histQuantile(b [histBuckets]uint64, count uint64, q float64) int64 {
	if count == 0 {
		return 0
	}
	rank := uint64(q * float64(count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, n := range b {
		cum += n
		if cum >= rank {
			return int64(1) << i
		}
	}
	return int64(1) << (histBuckets - 1)
}

// metrics holds the server's own counters. Cache and session numbers are
// pulled from their owners at render time, so this struct only tracks
// request-level activity.
type metrics struct {
	requests       atomic.Uint64 // requests accepted into a handler
	throttled      atomic.Uint64 // requests rejected by the concurrency limiter
	errors         atomic.Uint64 // 4xx/5xx responses
	analyses       atomic.Uint64 // single analyses served (cache hits included)
	eventAnalyses  atomic.Uint64 // the subset of analyses on event-stream workloads
	batchJobs      atomic.Uint64 // batch jobs served (cache hits included)
	proposals      atomic.Uint64 // session proposals served (bulk members included)
	proposeBatches atomic.Uint64 // propose-batch requests served
	inflight       atomic.Int64  // requests currently inside a handler
	maxInflight    atomic.Int64  // high-water mark of inflight

	// proposeNS tracks per-proposal decision latency; incremental and
	// escalated split the proposals by which path decided them.
	proposeNS   latencyHist
	incremental atomic.Uint64
	escalated   atomic.Uint64

	// Partition activity: placement requests by outcome, plus how the
	// per-bin verification work split between fresh analyzer runs and the
	// content-addressed cache (the O(1) utilization gate rejections never
	// reach either).
	partitionRequests       atomic.Uint64
	partitionFeasible       atomic.Uint64
	partitionInfeasible     atomic.Uint64
	partitionBinChecks      atomic.Uint64
	partitionBinCacheHits   atomic.Uint64
	partitionGateRejections atomic.Uint64

	// promotions counts the exits of analyses (single, batch and proposal
	// escalations) from the bounded-denominator arithmetic fast path:
	// values promoted to big rationals, including every register of a
	// workload whose periods no chunk plan fits.
	promotions atomic.Uint64

	// Durable-store activity (only rendered when a store is configured).
	// resumed counts sessions replayed at startup, rehydrated counts
	// lazy takeover loads, journalErrors counts failed log/snapshot
	// writes (each logged with its cause).
	resumed       atomic.Uint64
	rehydrated    atomic.Uint64
	journalErrors atomic.Uint64
}

// enter records a request entering a handler and keeps the high-water
// mark of concurrent requests.
func (m *metrics) enter() {
	m.requests.Add(1)
	cur := m.inflight.Add(1)
	for {
		peak := m.maxInflight.Load()
		if cur <= peak || m.maxInflight.CompareAndSwap(peak, cur) {
			return
		}
	}
}

func (m *metrics) leave() { m.inflight.Add(-1) }

// writeMetrics renders the server's counters as a valid Prometheus text
// exposition page: one # HELP / # TYPE header per family, samples
// unlabeled (the proxy adds replica labels when it aggregates). Metric
// names are unchanged from the pre-exposition format, so existing
// scrapers keep matching.
func (s *Server) writeMetrics(w io.Writer) {
	cs := s.cache.Stats()
	active, created, expired := s.sessions.counts()
	published, dropped, subscribers := s.hub.Stats()
	ew := obs.NewExpositionWriter(w)
	counter := func(name, help string, v uint64) {
		ew.Family(name, obs.Counter, help)
		ew.Sample(name, nil, float64(v))
	}
	gauge := func(name, help string, v float64) {
		ew.Family(name, obs.Gauge, help)
		ew.Sample(name, nil, v)
	}
	counter("edfd_requests_total", "Requests accepted into a handler.", s.m.requests.Load())
	counter("edfd_requests_throttled", "Requests rejected by the concurrency limiter.", s.m.throttled.Load())
	counter("edfd_requests_errors", "Requests answered with a 4xx/5xx error body.", s.m.errors.Load())
	gauge("edfd_requests_inflight", "Requests currently inside a handler.", float64(s.m.inflight.Load()))
	gauge("edfd_requests_inflight_peak", "High-water mark of concurrent requests.", float64(s.m.maxInflight.Load()))
	counter("edfd_analyses_total", "Single analyses served, cache hits included.", s.m.analyses.Load())
	counter("edfd_analyses_events_total", "Analyses on event-stream workloads.", s.m.eventAnalyses.Load())
	counter("edfd_batch_jobs_total", "Batch jobs served, cache hits included.", s.m.batchJobs.Load())
	counter("edfd_partition_requests_total", "Partitioned placement requests served.", s.m.partitionRequests.Load())
	counter("edfd_partition_feasible_total", "Placement requests answered with a proven placement.", s.m.partitionFeasible.Load())
	counter("edfd_partition_infeasible_total", "Placement requests answered with a counterexample.", s.m.partitionInfeasible.Load())
	counter("edfd_partition_bin_checks_total", "Bin verdicts consulted during placement: gate-surviving trials plus final bins.", s.m.partitionBinChecks.Load())
	counter("edfd_partition_bin_cache_hits_total", "Final-bin verdicts served from the content-addressed cache.", s.m.partitionBinCacheHits.Load())
	counter("edfd_partition_gate_rejections_total", "Candidate bins dismissed by the O(1) utilization gate.", s.m.partitionGateRejections.Load())
	counter("edfd_session_proposals_total", "Session proposals decided, bulk members included.", s.m.proposals.Load())
	counter("edfd_session_propose_batches_total", "Propose-batch requests served.", s.m.proposeBatches.Load())
	counter("edfd_session_proposals_incremental_total", "Proposals decided by the O(delta) paths (gate or certificate).", s.m.incremental.Load())
	counter("edfd_session_proposals_escalated_total", "Proposals decided by a full analyzer run.", s.m.escalated.Load())
	counter("edfd_arith_promotions_total", "Exits of analyses from the bounded-denominator arithmetic fast path (values promoted to big rationals).", s.m.promotions.Load())
	gauge("edfd_sessions_active", "Admission sessions currently open.", float64(active))
	counter("edfd_sessions_created", "Admission sessions opened over the server's lifetime.", created)
	counter("edfd_sessions_expired", "Admission sessions closed by the idle TTL sweeper.", expired)
	counter("edfd_cache_hits", "Result cache hits.", cs.Hits)
	counter("edfd_cache_misses", "Result cache misses.", cs.Misses)
	counter("edfd_cache_evictions", "Result cache evictions.", cs.Evictions)
	gauge("edfd_cache_entries", "Result cache entries resident.", float64(cs.Entries))
	gauge("edfd_cache_capacity", "Result cache capacity.", float64(cs.Capacity))
	ew.Family("edfd_cache_hit_rate", obs.Gauge, "Hits over lookups, 0 when the cache is idle.")
	ew.SampleString("edfd_cache_hit_rate", nil, fmt.Sprintf("%.4f", cs.HitRate()))
	counter("edfd_events_published_total", "Admission feed events published.", published)
	counter("edfd_events_dropped_total", "Feed events dropped on saturated subscriber buffers.", dropped)
	gauge("edfd_event_subscribers", "Feed subscribers currently connected.", float64(subscribers))

	if s.store != nil {
		st := s.store.Stats()
		counter("edfd_store_records_total", "Decision records written to the write-ahead log.", st.Records)
		counter("edfd_store_appends_total", "Append/Submit calls against the store.", st.Appends)
		counter("edfd_store_flushes_total", "Group-commit batches flushed.", st.Flushes)
		counter("edfd_store_syncs_total", "fsync calls amortized by group commit.", st.Syncs)
		counter("edfd_store_bytes_total", "Bytes written to the write-ahead log.", st.Bytes)
		counter("edfd_store_snapshots_total", "Compacting snapshots written.", st.Snapshots)
		counter("edfd_store_truncations_total", "Damaged log tails truncated during replay.", st.Truncations)
		counter("edfd_store_sessions_resumed_total", "Sessions replayed back to life at startup.", s.m.resumed.Load())
		counter("edfd_store_sessions_rehydrated_total", "Sessions rehydrated on demand (takeover path).", s.m.rehydrated.Load())
		counter("edfd_store_journal_errors_total", "Failed journal or snapshot writes.", s.m.journalErrors.Load())
	}

	// Buckets are rendered cumulatively ("le" semantics): sums of
	// cumulative counters across replicas stay cumulative, so the proxy
	// can add them up and re-derive fleet quantiles.
	hb, hcount, hsum := s.m.proposeNS.snapshot()
	ew.Family("edfd_propose_ns", obs.Histogram, "Per-proposal decision latency in nanoseconds, log2 buckets.")
	var cum uint64
	for i := range hb {
		cum += hb[i]
		ew.Sample("edfd_propose_ns_bucket", []obs.Label{{Name: "le", Value: strconv.FormatInt(int64(1)<<i, 10)}}, float64(cum))
	}
	ew.Sample("edfd_propose_ns_bucket", []obs.Label{{Name: "le", Value: "+Inf"}}, float64(hcount))
	ew.Sample("edfd_propose_ns_sum", nil, float64(hsum))
	ew.Sample("edfd_propose_ns_count", nil, float64(hcount))
	gauge("edfd_propose_ns_p50", "Median proposal latency, derived from the histogram.", float64(histQuantile(hb, hcount, 0.50)))
	gauge("edfd_propose_ns_p99", "99th-percentile proposal latency, derived from the histogram.", float64(histQuantile(hb, hcount, 0.99)))
}
