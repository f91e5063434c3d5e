// Command edfproxy routes edfd's HTTP/JSON API across a cluster of edfd
// replicas with a consistent-hash ring over content-addressed workload
// fingerprints, so identical workloads always land on the replica whose
// cache already holds their results.
//
// Usage:
//
//	edfproxy -replicas http://h1:8080,http://h2:8080 [-addr :8070]
//	         [-vnodes 128] [-health-interval 2s]
//
// Routing:
//
//	POST /v1/analyze     by workload fingerprint; idempotent, fails over
//	                     to the next ring node when a replica is down
//	POST /v1/partition   by workload fingerprint, like /v1/analyze (a
//	                     placement reads and fills no cache)
//	POST /v1/batch       split per-fingerprint across replicas, per-job
//	                     results re-merged in deterministic set-major order
//	POST /v1/sessions    sticky: the creating replica owns the session;
//	/v1/sessions/{id}... later requests always go to the owner (503 naming
//	                     the owner when it is down — sessions are stateful)
//	GET  /v1/analyzers   any healthy replica (registries are identical)
//	GET  /v1/schema      any healthy replica (schemas are identical)
//	GET  /v1/events      fleet-wide SSE admission feed fanned in from every
//	                     replica, events labeled with their replica
//	GET  /v1/traces      recent proxied request traces
//	GET  /v1/traces/{id} merged fleet trace: routing spans + replica spans
//	GET  /healthz        proxy + per-replica health
//	GET  /metrics        Prometheus exposition: replica families summed +
//	                     per-replica {replica="..."} samples + edfproxy_*
//	                     routing/failover counters
//
// An unknown workload model gets a 400 from request decoding, as on
// edfd itself.
//
// Diagnostics go to stderr as JSON (log/slog); -log-level tunes the
// threshold, -debug-addr serves net/http/pprof on a separate opt-in mux.
// The stdout banner line stays printf-style — scripts parse it for the
// listen address. The process shell is service.Daemon, shared with edfd.
//
// A background checker probes every replica's /healthz each interval,
// ejecting failed replicas from the ring and re-admitting them when they
// recover; a transport error during proxying ejects immediately. Ring
// membership changes remap only ~1/N of the key space (virtual nodes),
// keeping the surviving replicas' caches warm.
//
// The proxy drains in-flight requests on SIGINT/SIGTERM before exiting.
package main

import (
	"flag"
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8070", "listen address")
		replicas  = flag.String("replicas", "", "comma-separated edfd base URLs (required)")
		vnodes    = flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per replica on the hash ring")
		interval  = flag.Duration("health-interval", cluster.DefaultHealthInterval, "replica /healthz probe interval")
		logLevel  = flag.String("log-level", "info", "slog threshold: debug, info, warn or error")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof on this address (off when empty)")
	)
	flag.Parse()

	d := service.NewDaemon("edfproxy", *logLevel, *debugAddr)
	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	p, err := cluster.New(cluster.Config{
		Replicas:       urls,
		VirtualNodes:   *vnodes,
		HealthInterval: *interval,
		Logger:         d.Log,
	})
	if err != nil {
		d.Exit(2, err)
	}
	p.Start()
	defer p.Close()
	d.Serve(d.Listen(*addr), p.Handler(), p.Close,
		fmt.Sprintf("(%d replicas, %d vnodes, health every %s)", len(urls), *vnodes, *interval),
		"replicas", len(urls), "vnodes", *vnodes, "health_interval", interval.String())
}
