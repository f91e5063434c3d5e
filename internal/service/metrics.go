package service

import (
	"fmt"
	"io"
	"math/bits"
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

// snapshot returns the buckets in cumulative "le" form (Count samples
// took at most LE ns) with the sample count and sum.
func (h *latencyHist) snapshot() (bs [histBuckets]obs.Bucket, count, sum uint64) {
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		bs[i] = obs.Bucket{LE: float64(int64(1) << i), Count: float64(cum)}
	}
	return bs, h.count.Load(), h.sum.Load()
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

	// Partition activity: placement requests by outcome, the trials
	// (certificate checks or analyzer runs) and the candidates the O(1)
	// utilization gate rejected before any trial. Nothing adds to
	// partitionBinCacheHits since placements stopped caching their bins:
	// it backs the deprecated edfd_partition_bin_cache_hits_total, which
	// reads 0 until it is deleted.
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
	ew.Counter("edfd_requests_total", "Requests accepted into a handler.", s.m.requests.Load())
	ew.Counter("edfd_requests_throttled", "Requests rejected by the concurrency limiter.", s.m.throttled.Load())
	ew.Counter("edfd_requests_errors", "Requests answered with a 4xx/5xx error body.", s.m.errors.Load())
	ew.Gauge("edfd_requests_inflight", "Requests currently inside a handler.", float64(s.m.inflight.Load()))
	ew.Gauge("edfd_requests_inflight_peak", "High-water mark of concurrent requests.", float64(s.m.maxInflight.Load()))
	ew.Counter("edfd_analyses_total", "Single analyses served, cache hits included.", s.m.analyses.Load())
	ew.Counter("edfd_analyses_events_total", "Analyses on event-stream workloads.", s.m.eventAnalyses.Load())
	ew.Counter("edfd_batch_jobs_total", "Batch jobs served, cache hits included.", s.m.batchJobs.Load())
	ew.Counter("edfd_partition_requests_total", "Partitioned placement requests served.", s.m.partitionRequests.Load())
	ew.Counter("edfd_partition_feasible_total", "Placement requests answered with a proven placement.", s.m.partitionFeasible.Load())
	ew.Counter("edfd_partition_infeasible_total", "Placement requests answered with a counterexample.", s.m.partitionInfeasible.Load())
	ew.Counter("edfd_partition_bin_checks_total", "Placement trials: certificate checks or analyzer runs of gate-surviving candidate bins.", s.m.partitionBinChecks.Load())
	ew.Counter("edfd_partition_bin_cache_hits_total", "Always 0: final bins are not cached (deprecated).", s.m.partitionBinCacheHits.Load())
	ew.Counter("edfd_partition_gate_rejections_total", "Candidate bins dismissed by the O(1) utilization gate.", s.m.partitionGateRejections.Load())
	ew.Counter("edfd_session_proposals_total", "Session proposals decided, bulk members included.", s.m.proposals.Load())
	ew.Counter("edfd_session_propose_batches_total", "Propose-batch requests served.", s.m.proposeBatches.Load())
	ew.Counter("edfd_session_proposals_incremental_total", "Proposals decided by the O(delta) paths (gate or certificate).", s.m.incremental.Load())
	ew.Counter("edfd_session_proposals_escalated_total", "Proposals decided by a full analyzer run.", s.m.escalated.Load())
	ew.Counter("edfd_arith_promotions_total", "Exits of analyses from the bounded-denominator arithmetic fast path (values promoted to big rationals).", s.m.promotions.Load())
	ew.Gauge("edfd_sessions_active", "Admission sessions currently open.", float64(active))
	ew.Counter("edfd_sessions_created", "Admission sessions opened over the server's lifetime.", created)
	ew.Counter("edfd_sessions_expired", "Admission sessions closed by the idle TTL sweeper.", expired)
	ew.Counter("edfd_cache_hits", "Result cache hits.", cs.Hits)
	ew.Counter("edfd_cache_misses", "Result cache misses.", cs.Misses)
	ew.Counter("edfd_cache_evictions", "Result cache evictions.", cs.Evictions)
	ew.Gauge("edfd_cache_entries", "Result cache entries resident.", float64(cs.Entries))
	ew.Gauge("edfd_cache_capacity", "Result cache capacity.", float64(cs.Capacity))
	ew.Family("edfd_cache_hit_rate", obs.Gauge, "Hits over lookups, 0 when the cache is idle.")
	ew.SampleString("edfd_cache_hit_rate", nil, fmt.Sprintf("%.4f", cs.HitRate()))
	ew.Counter("edfd_events_published_total", "Admission feed events published.", published)
	ew.Counter("edfd_events_dropped_total", "Feed events dropped on saturated subscriber buffers.", dropped)
	ew.Gauge("edfd_event_subscribers", "Feed subscribers currently connected.", float64(subscribers))

	if s.store != nil {
		st := s.store.Stats()
		ew.Counter("edfd_store_records_total", "Decision records written to the write-ahead log.", st.Records)
		ew.Counter("edfd_store_appends_total", "Append/Submit calls against the store.", st.Appends)
		ew.Counter("edfd_store_flushes_total", "Group-commit batches flushed.", st.Flushes)
		ew.Counter("edfd_store_syncs_total", "fsync calls amortized by group commit.", st.Syncs)
		ew.Counter("edfd_store_bytes_total", "Bytes written to the write-ahead log.", st.Bytes)
		ew.Counter("edfd_store_snapshots_total", "Compacting snapshots written.", st.Snapshots)
		ew.Counter("edfd_store_truncations_total", "Damaged log tails truncated during replay.", st.Truncations)
		ew.Counter("edfd_store_sessions_resumed_total", "Sessions replayed back to life at startup.", s.m.resumed.Load())
		ew.Counter("edfd_store_sessions_rehydrated_total", "Sessions rehydrated on demand (takeover path).", s.m.rehydrated.Load())
		ew.Counter("edfd_store_journal_errors_total", "Failed journal or snapshot writes.", s.m.journalErrors.Load())
	}

	hb, hcount, hsum := s.m.proposeNS.snapshot()
	ew.Family("edfd_propose_ns", obs.Histogram, "Per-proposal decision latency in nanoseconds, log2 buckets.")
	for _, b := range hb {
		ew.Sample("edfd_propose_ns_bucket", []obs.Label{{Name: "le", Value: obs.FormatValue(b.LE)}}, b.Count)
	}
	ew.Sample("edfd_propose_ns_bucket", []obs.Label{{Name: "le", Value: "+Inf"}}, float64(hcount))
	ew.Sample("edfd_propose_ns_sum", nil, float64(hsum))
	ew.Sample("edfd_propose_ns_count", nil, float64(hcount))
	ew.Quantiles("edfd_propose_ns", "proposal latency, derived from the histogram", hb[:])
}
