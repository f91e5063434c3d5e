package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/store"
)

// fleet is the set of in-process daemons one workload drives: edfd
// replicas booted by cluster.Spawn on loopback ports, optionally fronted
// by an edfproxy served the same way.
type fleet struct {
	// url is the address the clients talk to: the proxy when there is
	// one, else the single edfd.
	url      string
	replicas []string
	spawner  *cluster.Spawner
	st       *store.DiskStore
	proxy    *cluster.Proxy
	proxyHS  *http.Server
	done     chan struct{}
}

// bootEdfd starts n edfd replicas with production defaults. A non-nil
// st is the durable session store of a single replica; the fleet closes
// it after the replica has stopped.
func bootEdfd(n int, st *store.DiskStore) (*fleet, error) {
	var cfg service.Config
	if st != nil {
		cfg.Store = st
	}
	sp, err := cluster.Spawn(n, cfg)
	if err != nil {
		return nil, fmt.Errorf("booting edfd: %w", err)
	}
	f := &fleet{spawner: sp, replicas: sp.URLs(), st: st}
	f.url = f.replicas[0]
	return f, nil
}

// bootProxy puts an edfproxy with its health checker in front of the
// replicas.
func (f *fleet) bootProxy() error {
	p, err := cluster.New(cluster.Config{Replicas: f.replicas})
	if err != nil {
		return fmt.Errorf("booting edfproxy: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("booting edfproxy: %w", err)
	}
	p.Start()
	f.proxy, f.proxyHS, f.done = p, &http.Server{Handler: p.Handler()}, make(chan struct{})
	go func() {
		defer close(f.done)
		_ = f.proxyHS.Serve(ln) // returns ErrServerClosed on close
	}()
	f.url = "http://" + ln.Addr().String()
	return nil
}

// close stops every daemon and waits for their serve loops to end.
func (f *fleet) close() {
	if f.proxy != nil {
		f.proxy.Close()
		_ = f.proxyHS.Close()
		<-f.done
	}
	f.spawner.Close()
	if f.st != nil {
		// The store dies with the run's directory; nothing reads it back.
		_ = f.st.Close()
	}
}

// counters sums every unlabeled sample of each replica's /metrics page
// by name. Deltas of these counters over the timed phase are exact
// counts of the work the daemons did.
func (f *fleet) counters(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	for _, rep := range f.replicas {
		page, err := client.New(rep, nil).Metrics(ctx)
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", rep, err)
		}
		samples, err := obs.ParseExposition(strings.NewReader(page))
		if err != nil {
			return nil, fmt.Errorf("parsing %s/metrics: %w", rep, err)
		}
		for _, s := range samples {
			if len(s.Labels) == 0 {
				out[s.Name] += s.Value
			}
		}
	}
	return out, nil
}

// traceKey carries the trace id a traced request should adopt.
type traceKey struct{}

// traceTransport stamps X-Edf-Trace from the request context, so the
// daemons record the request under an id the benchmark chose and the
// server's spans can be fetched and attached to the client span. The
// client library itself stays untouched.
type traceTransport struct{ base http.RoundTripper }

func (t traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id, _ := r.Context().Value(traceKey{}).(string)
	if id == "" {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(obs.TraceHeader, id)
	return t.base.RoundTrip(r)
}

// newClient builds one benchmark client: its own transport holding a
// single keep-alive connection, as one closed-loop user would.
func newClient(base string) (*client.Client, *http.Transport) {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		IdleConnTimeout:     time.Minute,
	}
	return client.New(base, &http.Client{Transport: traceTransport{tr}}), tr
}
