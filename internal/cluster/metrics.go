package cluster

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/obs"
)

// proxyMetrics holds the proxy's own routing and failover counters.
// Replica-side numbers are scraped live at render time, never stored.
type proxyMetrics struct {
	requests         atomic.Uint64 // requests entering the proxy
	analyzeRouted    atomic.Uint64 // /v1/analyze requests routed by fingerprint
	partitionRouted  atomic.Uint64 // /v1/partition requests routed by fingerprint
	batchRequests    atomic.Uint64 // /v1/batch requests accepted
	batchSplits      atomic.Uint64 // per-replica sub-batches dispatched
	batchJobs        atomic.Uint64 // merged batch jobs returned to clients
	sessionCreates   atomic.Uint64 // sessions opened through the proxy
	sessionRoutes    atomic.Uint64 // session requests routed to their owner
	sessionOrphans   atomic.Uint64 // session requests whose owner was unavailable
	takeovers        atomic.Uint64 // sessions reassigned to a takeover peer
	takeoverFailed   atomic.Uint64 // takeover attempts no peer could serve
	failovers        atomic.Uint64 // requests retried on the next ring node
	ejections        atomic.Uint64 // replicas removed from the ring
	readmissions     atomic.Uint64 // replicas re-added after recovering
	noReplica        atomic.Uint64 // requests failed because the ring was empty
	upstreamErrors   atomic.Uint64 // replica requests that failed all attempts
	eventsRelayed    atomic.Uint64 // feed events relayed from replica streams
	eventSubscribers atomic.Int64  // open fleet feed streams
}

// writeMetrics renders the aggregate page in Prometheus text exposition
// format: the proxy's own counters under edfproxy_, then each replica
// family with its fleet sum (unlabeled, so the single-process scrape
// keeps working against the proxy) followed by the raw per-replica
// samples under a {replica="..."} label — one contiguous block per
// family, as the format requires. Ratios and quantiles cannot be
// summed; they are recomputed from their summable parts.
func (p *Proxy) writeMetrics(w io.Writer, scrapes []replicaScrape) {
	states, healthy := p.replicaStates()
	ew := obs.NewExpositionWriter(w)
	ew.Counter("edfproxy_requests_total", "Requests entering the proxy.", p.m.requests.Load())
	ew.Counter("edfproxy_analyze_routed_total", "Analyze requests routed by workload fingerprint.", p.m.analyzeRouted.Load())
	ew.Counter("edfproxy_partition_routed_total", "Partition requests routed by workload fingerprint.", p.m.partitionRouted.Load())
	ew.Counter("edfproxy_batch_requests_total", "Batch requests accepted.", p.m.batchRequests.Load())
	ew.Counter("edfproxy_batch_splits_total", "Per-replica sub-batches dispatched.", p.m.batchSplits.Load())
	ew.Counter("edfproxy_batch_jobs_total", "Merged batch jobs returned to clients.", p.m.batchJobs.Load())
	ew.Counter("edfproxy_session_creates_total", "Sessions opened through the proxy.", p.m.sessionCreates.Load())
	ew.Counter("edfproxy_session_routes_total", "Session requests routed to their sticky owner.", p.m.sessionRoutes.Load())
	ew.Counter("edfproxy_session_owner_unavailable", "Session requests whose owner replica was down.", p.m.sessionOrphans.Load())
	ew.Counter("edfproxy_takeover_total", "Sessions reassigned to a takeover peer after their owner died.", p.m.takeovers.Load())
	ew.Counter("edfproxy_takeover_failed_total", "Takeover attempts no surviving peer could serve.", p.m.takeoverFailed.Load())
	ew.Counter("edfproxy_failovers_total", "Requests retried on the next ring node.", p.m.failovers.Load())
	ew.Counter("edfproxy_replica_ejections_total", "Replicas removed from the ring.", p.m.ejections.Load())
	ew.Counter("edfproxy_replica_readmissions_total", "Replicas re-added after recovering.", p.m.readmissions.Load())
	ew.Counter("edfproxy_no_replica_errors_total", "Requests failed because the ring was empty.", p.m.noReplica.Load())
	ew.Counter("edfproxy_upstream_errors_total", "Replica requests that failed every attempt.", p.m.upstreamErrors.Load())
	ew.Counter("edfproxy_events_relayed_total", "Feed events relayed from replica streams.", p.m.eventsRelayed.Load())
	ew.Gauge("edfproxy_event_subscribers", "Fleet feed streams currently open.", float64(p.m.eventSubscribers.Load()))
	ew.Gauge("edfproxy_replicas_healthy", "Replicas currently on the ring.", float64(len(healthy)))
	ew.Gauge("edfproxy_replicas_configured", "Replicas configured at startup.", float64(len(states)))
	ew.Gauge("edfproxy_sessions_tracked", "Session owners the proxy remembers.", float64(p.ownedSessions()))

	// Merge the replica pages. Families and samples keep the first
	// scrape's order (replica pages are identically structured), values
	// sum across replicas under the sample's full key — name plus labels —
	// so labeled series like histogram buckets merge per bucket.
	type aggEntry struct {
		sample obs.Sample // name + labels from the first scrape holding it
		key    string
		sum    float64
	}
	type familyBlock struct {
		name    string
		typ     obs.MetricType
		entries []*aggEntry
	}
	var fams []*familyBlock
	famIdx := map[string]*familyBlock{}
	entryIdx := map[string]*aggEntry{}
	perReplica := make([]map[string]float64, len(scrapes))
	for si, sc := range scrapes {
		perReplica[si] = make(map[string]float64, len(sc.samples))
		for _, s := range sc.samples {
			key := s.Key()
			perReplica[si][key] = s.Value
			e, ok := entryIdx[key]
			if !ok {
				famName, typ := familyOf(s.Name, sc.types)
				fb, exists := famIdx[famName]
				if !exists {
					fb = &familyBlock{name: famName, typ: typ}
					famIdx[famName] = fb
					fams = append(fams, fb)
				}
				e = &aggEntry{sample: s, key: key}
				fb.entries = append(fb.entries, e)
				entryIdx[key] = e
			}
			e.sum += s.Value
		}
	}
	for _, fb := range fams {
		ew.Family(fb.name, fb.typ, "Fleet sum; {replica} samples are per node.")
		for _, e := range fb.entries {
			ew.Sample(e.sample.Name, e.sample.Labels, e.sum)
			for si, sc := range scrapes {
				v, ok := perReplica[si][e.key]
				if !ok {
					continue
				}
				labels := make([]obs.Label, 0, len(e.sample.Labels)+1)
				labels = append(labels, e.sample.Labels...)
				labels = append(labels, obs.Label{Name: "replica", Value: sc.replica})
				ew.Sample(e.sample.Name, labels, v)
			}
		}
	}

	// Derived ratios cannot be summed; recompute from the summed parts.
	sumOf := func(key string) float64 {
		if e, ok := entryIdx[key]; ok {
			return e.sum
		}
		return 0
	}
	if hits, misses := sumOf("edfd_cache_hits"), sumOf("edfd_cache_misses"); hits+misses > 0 {
		ew.Family("edfd_cache_hit_rate", obs.Gauge, "Fleet cache hits over lookups.")
		ew.SampleString("edfd_cache_hit_rate", nil, fmt.Sprintf("%.4f", hits/(hits+misses)))
	}
	// Quantiles cannot be summed either, but cumulative buckets can: each
	// summed histogram is itself a fleet histogram, so the fleet p50/p99
	// of every histogram family fall out of its summed buckets.
	for _, fb := range fams {
		if fb.typ != obs.Histogram {
			continue
		}
		var bs []obs.Bucket
		for _, e := range fb.entries {
			le, err := strconv.ParseFloat(e.sample.Label("le"), 64)
			if e.sample.Name == fb.name+"_bucket" && err == nil && !math.IsInf(le, 1) {
				bs = append(bs, obs.Bucket{LE: le, Count: e.sum})
			}
		}
		sort.Slice(bs, func(i, j int) bool { return bs[i].LE < bs[j].LE })
		ew.Quantiles(fb.name, "of "+fb.name+" across the fleet, from summed buckets", bs)
	}
}

// familyOf maps a sample name to its metric family: the name itself for
// scalar families, the declared histogram family for its _bucket, _sum
// and _count series.
func familyOf(name string, types map[string]obs.MetricType) (string, obs.MetricType) {
	if t, ok := types[name]; ok {
		return name, t
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok {
			if t, exists := types[base]; exists && t == obs.Histogram {
				return base, t
			}
		}
	}
	return name, obs.Untyped
}

// replicaScrape is one replica's parsed /metrics page.
type replicaScrape struct {
	replica string
	samples []obs.Sample
	types   map[string]obs.MetricType
}

// parseScrape parses a replica exposition page, dropping the derived
// series (edfd_cache_hit_rate, each histogram's _p50 and _p99): none can
// be summed across replicas; the aggregate recomputes them from their
// summable parts.
func parseScrape(r io.Reader) ([]obs.Sample, map[string]obs.MetricType, error) {
	samples, types, err := obs.ParseExpositionTyped(r)
	if err != nil {
		return nil, nil, err
	}
	kept := samples[:0]
	for _, s := range samples {
		if derivedName(s.Name) {
			continue
		}
		kept = append(kept, s)
	}
	return kept, types, nil
}

// derivedName reports whether a series is derived from other series and
// therefore must not be summed.
func derivedName(name string) bool {
	return strings.HasSuffix(name, "_rate") ||
		strings.HasSuffix(name, "_p50") ||
		strings.HasSuffix(name, "_p99")
}
