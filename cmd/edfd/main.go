// Command edfd serves EDF feasibility analysis over HTTP/JSON: stateless
// analyze/batch endpoints over polymorphic workloads (sporadic task sets
// and Gresser event streams) backed by a content-addressed result cache,
// and stateful online admission sessions.
//
// Usage:
//
//	edfd [-addr :8080] [-cache 4096] [-workers 0] [-inflight 256]
//	     [-timeout 30s] [-sessions 1024] [-session-ttl 0]
//	     [-store-dir ""] [-store-node ""] [-snapshot-interval 30s]
//
// Endpoints:
//
//	POST /v1/analyze                      one workload, one analyzer (default cascade)
//	POST /v1/batch                        workloads x analyzers over the worker pool
//	GET  /v1/analyzers                    the analyzer registry
//	POST /v1/sessions                     open an admission session
//	GET|DELETE /v1/sessions/{id}          inspect / close a session
//	POST /v1/sessions/{id}/propose        stage a task if still feasible
//	POST /v1/sessions/{id}/propose-batch  stage several tasks, one verdict each
//	POST /v1/sessions/{id}/commit         make staged tasks permanent
//	POST /v1/sessions/{id}/rollback       discard staged tasks
//	GET  /v1/sessions/{id}/events         live SSE admission feed for one session
//	GET  /v1/events                       live SSE admission feed, all sessions
//	GET  /v1/traces                       recent request traces
//	GET  /v1/traces/{id}                  one request's span record
//	GET  /healthz                         liveness
//	GET  /metrics                         Prometheus text exposition
//
// Workloads are {"model": "sporadic"|"events", "tasks": [...]}; a missing
// model means sporadic, so pre-workload payloads keep working. With
// -session-ttl > 0 a background sweeper closes admission sessions idle
// past the TTL (off by default).
//
// With -store-dir, admission decisions are journaled to a write-ahead
// log in that directory and a restarted edfd resumes its committed
// sessions. An open, commit or close is fsynced, with every record
// queued before it, before edfd replies; concurrent ones share one
// fsync. Periodic snapshots compact the log.
// Several replicas may share one directory — each journals to its own
// per-node segment, named by -store-node (default: a stable name
// persisted in the directory's node-id file; replicas sharing a
// directory must set distinct explicit names) — which is what lets
// edfproxy hand a dead replica's sessions to a surviving peer.
//
// Diagnostics go to stderr as JSON (log/slog) carrying trace/session
// attributes; -log-level tunes the threshold. The stdout banner line
// stays printf-style — scripts parse it for the listen address. With
// -debug-addr a second mux serves net/http/pprof on that address only.
// The process shell (logger, pprof mux, listen, serve and drain) is
// service.Daemon, shared with edfproxy.
//
// The server drains in-flight requests on SIGINT/SIGTERM before exiting.
package main

import (
	"flag"
	"fmt"

	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cache      = flag.Int("cache", service.DefaultCacheCapacity, "result cache capacity in entries (negative disables)")
		workers    = flag.Int("workers", 0, "batch worker pool size (0 = all CPUs)")
		inflight   = flag.Int("inflight", service.DefaultMaxInFlight, "max concurrent /v1 requests before 429")
		timeout    = flag.Duration("timeout", service.DefaultRequestTimeout, "per-request analysis deadline")
		sessions   = flag.Int("sessions", service.DefaultMaxSessions, "max open admission sessions")
		sessionTTL = flag.Duration("session-ttl", 0, "close admission sessions idle past this duration (0 disables)")
		logLevel   = flag.String("log-level", "info", "slog threshold: debug, info, warn or error")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty)")
		storeDir   = flag.String("store-dir", "", "journal admission decisions to this directory (off when empty)")
		storeNode  = flag.String("store-node", "", "segment name inside -store-dir (default: persisted node-id file)")
		snapEvery  = flag.Duration("snapshot-interval", service.DefaultSnapshotInterval, "compacting store snapshot cadence")
	)
	flag.Parse()

	d := service.NewDaemon("edfd", *logLevel, *debugAddr)
	ln := d.Listen(*addr)
	cfg := service.Config{
		CacheCapacity:    *cache,
		Workers:          *workers,
		MaxInFlight:      *inflight,
		RequestTimeout:   *timeout,
		MaxSessions:      *sessions,
		SessionTTL:       *sessionTTL,
		SnapshotInterval: *snapEvery,
		Logger:           d.Log,
	}
	if *storeDir != "" {
		// The default node name is persisted in the store dir (node-id
		// file), NOT derived from the listen address: with -addr :0 the
		// address changes every restart, which would orphan the previous
		// run's segments — replayed forever, compacted never. Fleets
		// sharing one directory must pass explicit -store-node values.
		node := *storeNode
		if node == "" {
			var err error
			if node, err = store.DefaultNode(*storeDir); err != nil {
				d.Exit(1, err)
			}
		}
		st, err := store.Open(*storeDir, node, store.Options{})
		if err != nil {
			d.Exit(1, err)
		}
		defer st.Close()
		d.Log.Info("durable store open", "dir", *storeDir, "node", node)
		cfg.Store = st
	}
	srv := service.New(cfg)
	defer srv.Close()
	d.Serve(ln, srv.Handler(), srv.Close,
		fmt.Sprintf("(cache %d, inflight %d, timeout %s, session-ttl %s)", *cache, *inflight, *timeout, *sessionTTL),
		"cache", *cache, "inflight", *inflight, "timeout", timeout.String(), "session_ttl", sessionTTL.String())
}
