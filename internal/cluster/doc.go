// Package cluster scales the edfd feasibility service horizontally: a
// consistent-hash ring with virtual nodes maps content-addressed workload
// fingerprints onto edfd replicas, and Proxy is an HTTP reverse proxy
// that routes /v1/analyze by that ring, splits /v1/batch per fingerprint
// across replicas (re-merging per-job results in deterministic order),
// pins admission sessions to the replica that created them, health-checks
// replicas (ejecting and re-admitting them with ring rebalancing), fails
// idempotent requests over to the next ring node, and serves an aggregate
// /metrics page merging replica counters with its own routing counters.
//
// Because edfd's result cache is keyed by the same fingerprints
// (engine.WorkloadFingerprint), ring routing gives cache affinity for
// free: identical workloads always land on the replica that already holds
// their results, so N replicas approach N disjoint caches rather than N
// copies of one.
//
// The proxy is also the fleet's observability plane. Every routed
// request carries a trace (internal/obs) propagated to the replica via
// X-Edf-Trace; GET /v1/traces/{id} merges the proxy's routing spans
// (forward attempts, sub-batch fan-out, session routing) with the
// replicas' own spans, each labeled with its origin replica, on one
// shared time axis. GET /v1/events fans every replica's admission feed
// into one fleet-wide server-sent-events stream — events labeled with
// their replica, relays redialing ejected replicas until they return —
// and the aggregate /metrics page is Prometheus text exposition:
// replica families summed fleet-wide next to per-replica
// {replica="..."} samples, with the fleet hit rate and the p50/p99 of
// every histogram family recomputed from the summed histograms.
//
// The proxy shares its request skeleton with edfd rather than copying
// it: trace adoption, the /v1/traces listing, the body limit and the
// request decoder and reply writer come from internal/service, the SSE
// loop and the exposition helpers from internal/obs.
//
// Spawner boots real in-process replicas on ephemeral ports for tests and
// benchmarks; cmd/edfproxy wraps Proxy as a standalone daemon on the
// process shell it shares with cmd/edfd (service.Daemon).
package cluster
