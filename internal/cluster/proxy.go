package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/workload"
)

// Response headers the proxy adds so clients (and tests) can observe
// routing without parsing metrics: the replica that served the request
// and how many attempts it took (1 = no failover).
const (
	HeaderReplica  = "X-Edf-Replica"
	HeaderAttempts = "X-Edf-Attempts"
	// HeaderOwner names a sticky session's owner: the serving replica on
	// session replies, or the unavailable owner on 503 replies when no
	// takeover peer could inherit the session.
	HeaderOwner = "X-Edf-Owner"
	// HeaderTakeover names the dead replica a session was taken over
	// from, on replies served by the takeover peer that rehydrated it
	// from the shared store.
	HeaderTakeover = "X-Edf-Takeover"
)

// Defaults for Config's zero values, and fixed limits.
const (
	DefaultHealthInterval = 2 * time.Second
	healthTimeout         = 2 * time.Second
	// maxTrackedSessions bounds the proxy's session->owner map; replicas
	// bound real sessions themselves (MaxSessions, TTL sweeping), this
	// only caps the proxy's bookkeeping for leaked ids.
	maxTrackedSessions = 1 << 16
)

// Config tunes a Proxy.
type Config struct {
	// Replicas are the edfd base URLs ("http://127.0.0.1:8081"). At least
	// one is required; all start healthy and on the ring.
	Replicas []string
	// VirtualNodes is the ring's points-per-replica count; <= 0 selects
	// DefaultVirtualNodes.
	VirtualNodes int
	// HealthInterval spaces background /healthz sweeps once Start runs;
	// 0 selects DefaultHealthInterval.
	HealthInterval time.Duration
	// Logger receives structured routing and replica lifecycle logs; nil
	// discards them.
	Logger *slog.Logger
}

// Proxy is the consistent-hash cluster router over edfd replicas.
// Construct with New, optionally Start the background health checker,
// and mount Handler on an http.Server.
type Proxy struct {
	hc      *http.Client
	started time.Time

	mu      sync.Mutex
	ring    *Ring
	healthy map[string]bool   // over the configured replica set
	owners  map[string]string // session id -> owner replica
	creates uint64            // round-robin key for seedless session creates

	m          proxyMetrics
	healthStop chan struct{}
	healthTick time.Duration

	log    *slog.Logger
	traces *obs.Recorder
	// stop ends the fleet feed relays so a graceful shutdown is not held
	// open by streaming clients.
	stop      chan struct{}
	closeOnce sync.Once
}

// New builds a proxy over the configured replicas. Every replica starts
// healthy; the first failed request or health sweep ejects it.
func New(cfg Config) (*Proxy, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: at least one replica required")
	}
	// A keep-alive transport sized for a small replica fleet.
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		// A replica that accepts connections but never answers (wedged
		// process, SIGSTOP) must still trigger failover: cap the wait
		// for response headers just above edfd's own per-request
		// deadline, after which a live replica would have answered 503.
		ResponseHeaderTimeout: service.DefaultRequestTimeout + 5*time.Second,
	}}
	tick := cfg.HealthInterval
	if tick <= 0 {
		tick = DefaultHealthInterval
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	p := &Proxy{
		hc:         hc,
		started:    time.Now(),
		ring:       NewRing(cfg.VirtualNodes),
		healthy:    make(map[string]bool, len(cfg.Replicas)),
		owners:     make(map[string]string),
		healthTick: tick,
		log:        log,
		traces:     obs.NewRecorder(0),
		stop:       make(chan struct{}),
	}
	for _, rep := range cfg.Replicas {
		rep = strings.TrimRight(rep, "/")
		if rep == "" {
			return nil, errors.New("cluster: empty replica URL")
		}
		if _, dup := p.healthy[rep]; dup {
			return nil, fmt.Errorf("cluster: duplicate replica %s", rep)
		}
		p.healthy[rep] = true
		p.ring.Add(rep)
	}
	return p, nil
}

// Start launches the background health checker. Calling Start twice is
// an error in the caller; Close stops the checker.
func (p *Proxy) Start() {
	p.healthStop = make(chan struct{})
	go p.healthLoop(p.healthStop)
}

// Close stops the background health checker (a no-op without Start) and
// ends open fleet feed streams.
func (p *Proxy) Close() {
	if p.healthStop != nil {
		close(p.healthStop)
		p.healthStop = nil
	}
	p.closeOnce.Do(func() { close(p.stop) })
}

// Handler returns the routed proxy handler.
func (p *Proxy) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", routed(p, "/v1/analyze", &p.m.analyzeRouted,
		func(r *service.AnalyzeRequest) workload.Workload { return r.Workload }))
	mux.HandleFunc("POST /v1/batch", p.handleBatch)
	mux.HandleFunc("POST /v1/partition", routed(p, "/v1/partition", &p.m.partitionRouted,
		func(r *service.PartitionRequest) workload.Workload { return r.Workload }))
	mux.HandleFunc("GET /v1/analyzers", p.fromAny("/v1/analyzers"))
	mux.HandleFunc("GET /v1/schema", p.fromAny("/v1/schema"))
	mux.HandleFunc("POST /v1/sessions", p.handleSessionCreate)
	mux.HandleFunc("/v1/sessions/{id}", p.handleSession)
	mux.HandleFunc("/v1/sessions/{id}/{action}", p.handleSession)
	mux.HandleFunc("GET /v1/events", p.handleEvents)
	// Every proxied request is traced at this layer, so the proxy's own
	// ring is the fleet-wide listing.
	mux.HandleFunc("GET /v1/traces", service.TraceList(p.traces, service.WriteError))
	mux.HandleFunc("GET /v1/traces/{id}", p.handleTrace)
	mux.HandleFunc("GET /healthz", p.handleHealthz)
	mux.HandleFunc("GET /metrics", p.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		p.m.requests.Add(1)
		r.Body = http.MaxBytesReader(w, r.Body, service.MaxRequestBytes)
		if !service.Traced(r.URL.Path) {
			mux.ServeHTTP(w, r)
			return
		}
		// post propagates the trace ID to the replicas, so their spans
		// land under the same ID.
		service.ServeTraced(r.Context(), w, r, mux, p.traces, p.log)
	})
}

// routeKey is the ring key of a workload: its content-addressed
// fingerprint under a fixed (empty) analyzer and zero options. Every
// request about the same workload — any analyzer, any options — lands on
// the same replica, so that replica's cache accumulates all of the
// workload's results.
func routeKey(wl workload.Workload) string {
	fp, _ := engine.WorkloadFingerprint(wl, "", core.Options{})
	return fp
}

// seqFor snapshots the failover sequence for a key under the lock.
func (p *Proxy) seqFor(key string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ring.Seq(key)
}

// setHealthy flips one replica's state, rebalancing the ring on a
// transition. It returns whether the state changed.
func (p *Proxy) setHealthy(rep string, ok bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	was, known := p.healthy[rep]
	if !known || was == ok {
		return false
	}
	p.healthy[rep] = ok
	if ok {
		p.ring.Add(rep)
		p.m.readmissions.Add(1)
		defer p.log.Info("replica readmitted", "replica", rep)
	} else {
		p.ring.Remove(rep)
		p.m.ejections.Add(1)
		defer p.log.Warn("replica ejected", "replica", rep)
	}
	return true
}

func (p *Proxy) isHealthy(rep string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.healthy[rep]
}

// replicaStates snapshots the health map, and the replicas on the ring
// in sorted order.
func (p *Proxy) replicaStates() (map[string]bool, []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	states := make(map[string]bool, len(p.healthy))
	var healthy []string
	for rep, ok := range p.healthy {
		states[rep] = ok
		if ok {
			healthy = append(healthy, rep)
		}
	}
	sort.Strings(healthy)
	return states, healthy
}

func (p *Proxy) ownedSessions() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.owners)
}

// healthLoop sweeps every replica until stop closes.
func (p *Proxy) healthLoop(stop <-chan struct{}) {
	t := time.NewTicker(p.healthTick)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.CheckReplicas(context.Background())
		case <-stop:
			return
		}
	}
}

// CheckReplicas probes every configured replica's /healthz once,
// ejecting the failed and re-admitting the recovered with ring
// rebalancing. It is the body of the background checker and is exported
// so tests and operators can force an immediate sweep.
func (p *Proxy) CheckReplicas(ctx context.Context) {
	states, _ := p.replicaStates()
	fanOut(sortedKeys(states), func(_ int, rep string) { p.check(ctx, rep) })
}

// check probes rep's /healthz and sets its ring membership from the
// answer: on the ring when it answers 200 within the health timeout,
// ejected otherwise. It reports whether the replica is healthy.
func (p *Proxy) check(ctx context.Context, rep string) bool {
	ctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	_, err := p.fetch(ctx, rep, "/healthz")
	p.setHealthy(rep, err == nil)
	return err == nil
}

// fanOut calls fn for every replica of reps, with its index,
// concurrently, and returns once every call has.
func fanOut(reps []string, fn func(i int, rep string)) {
	var wg sync.WaitGroup
	for i, rep := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, rep)
		}()
	}
	wg.Wait()
}

// retryable reports whether a replica status is worth a failover: the
// replica is saturated (429) or transiently failing (502/503/504). The
// analysis endpoints are idempotent — re-running an analysis elsewhere
// can only produce the same result — so retrying is always sound there.
func retryable(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// post sends one upstream request. A transport-level failure ejects the
// replica immediately (passive health detection); the background checker
// re-admits it when /healthz answers again.
func (p *Proxy) post(ctx context.Context, method, rep, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tr := obs.FromContext(ctx); tr != nil {
		req.Header.Set(obs.TraceHeader, tr.ID)
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		if ctx.Err() == nil { // the replica failed, not the client
			p.setHealthy(rep, false)
		}
		return nil, err
	}
	return resp, nil
}

// readReply reads and closes a replica reply's body, at most
// MaxRequestBytes of it. Every reply the proxy does not stream through to
// its client ends here; the JSON ones then decode with
// service.DecodeJSON, the decoder of the typed client.
func readReply(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	return service.ReadBody(io.LimitReader(resp.Body, service.MaxRequestBytes), resp.ContentLength)
}

// fetch GETs path from rep and returns the body of a 200 reply.
func (p *Proxy) fetch(ctx context.Context, rep, path string) ([]byte, error) {
	resp, err := p.post(ctx, http.MethodGet, rep, path, nil)
	if err != nil {
		return nil, err
	}
	body, err := readReply(resp)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("replica %s: GET %s: status %d", rep, path, resp.StatusCode)
	}
	return body, err
}

// span records one upstream step on the request's trace, and nothing
// outside a traced request: the step's name, the replica it ran on, and
// its extent on the trace's clock. A Trace is single-goroutine by
// contract, so steps run in parallel are added after their barrier.
func span(ctx context.Context, name, rep string, start time.Time, dur time.Duration, detail string) {
	if tr := obs.FromContext(ctx); tr != nil {
		tr.AddSpan(obs.Span{
			Name:    name,
			StartNS: start.Sub(tr.Start()).Nanoseconds(),
			DurNS:   dur.Nanoseconds(),
			Replica: rep,
			Detail:  detail,
		})
	}
}

// outcome is the span detail of one upstream call.
func outcome(resp *http.Response, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return "status " + strconv.Itoa(resp.StatusCode)
}

// forward tries the request on each node of seq in order and returns the
// first acceptable response, with the replica that served it, for the
// caller to relay. It answers the client itself when no node can serve.
func (p *Proxy) forward(w http.ResponseWriter, r *http.Request, seq []string, method, path string, body []byte) (served string, resp *http.Response, ok bool) {
	if len(seq) == 0 {
		p.m.noReplica.Add(1)
		service.WriteError(w, http.StatusServiceUnavailable, errors.New("no healthy replica on the ring"))
		return "", nil, false
	}
	for i, rep := range seq {
		if i > 0 {
			p.m.failovers.Add(1)
		}
		start := time.Now()
		rs, err := p.post(r.Context(), method, rep, path, body)
		retry := err == nil && retryable(rs.StatusCode) && i < len(seq)-1
		detail := outcome(rs, err)
		if retry {
			detail = "retryable " + detail
		}
		span(r.Context(), "forward", rep, start, time.Since(start), detail)
		if err != nil {
			if r.Context().Err() != nil {
				service.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("client canceled: %w", err))
				return "", nil, false
			}
			continue
		}
		if retry {
			_, _ = readReply(rs)
			continue
		}
		w.Header().Set(HeaderReplica, rep)
		w.Header().Set(HeaderAttempts, strconv.Itoa(i+1))
		return rep, rs, true
	}
	p.m.upstreamErrors.Add(1)
	service.WriteError(w, http.StatusBadGateway, fmt.Errorf("all %d replicas failed for %s", len(seq), path))
	return "", nil, false
}

// relay forwards along seq and streams the serving replica's reply
// through to the client.
func (p *Proxy) relay(w http.ResponseWriter, r *http.Request, seq []string, method, path string, body []byte) {
	if _, resp, ok := p.forward(w, r, seq, method, path, body); ok {
		p.stream(w, resp)
	}
}

// stream copies an upstream response through to the client. SSE bodies
// (a relayed per-session feed) are flushed per chunk so events reach the
// subscriber as they happen instead of sitting in the response buffer.
// Any other body keeps the replica's Content-Length, so a reply past
// net/http's response buffer is not re-sent chunked and the client can
// size its read.
func (p *Proxy) stream(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	ct := resp.Header.Get("Content-Type")
	if ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	sse := strings.HasPrefix(ct, obs.SSEContentType)
	if sse {
		for _, h := range []string{"Cache-Control", "X-Accel-Buffering"} {
			if v := resp.Header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
	} else if resp.ContentLength > 0 {
		w.Header().Set("Content-Length", strconv.FormatInt(resp.ContentLength, 10))
	}
	w.WriteHeader(resp.StatusCode)
	if fl, ok := w.(http.Flusher); ok && sse {
		fl.Flush()
		_, _ = io.Copy(flushWriter{w: w, fl: fl}, resp.Body)
		return
	}
	_, _ = io.Copy(w, resp.Body)
}

// flushWriter flushes after every write, for live stream relays.
type flushWriter struct {
	w  io.Writer
	fl http.Flusher
}

func (f flushWriter) Write(b []byte) (int, error) {
	n, err := f.w.Write(b)
	f.fl.Flush()
	return n, err
}

// routed serves an endpoint routed by its workload's fingerprint,
// /v1/analyze and /v1/partition: every request about one workload lands
// on the replica whose cache holds its results. Placement bins are
// fingerprinted in the plain sporadic domain, so single-bin /v1/analyze
// traffic for the same scaled task sets shares a placement's per-bin
// verdicts. The body decodes as T, and the client's bytes go on as they
// came.
func routed[T any](p *Proxy, path string, routes *atomic.Uint64, workloadOf func(*T) workload.Workload) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		body, req, ok := decodeBody[T](w, r)
		if !ok {
			return
		}
		routes.Add(1)
		p.relay(w, r, p.seqFor(routeKey(workloadOf(&req))), http.MethodPost, path, body)
	}
}

// fromAny serves a read that every replica answers alike, the analyzer
// registry or the schema, from any healthy one.
func (p *Proxy) fromAny(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		p.relay(w, r, p.seqFor(path), http.MethodGet, path, nil)
	}
}

// subBatch is the slice of a batch bound for one replica.
type subBatch struct {
	seq      []string // failover sequence of the group's first set
	origSets []int    // original set indices, ascending
	req      service.BatchRequest
}

func (p *Proxy) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, req, ok := decodeBody[service.BatchRequest](w, r)
	if !ok {
		return
	}
	p.m.batchRequests.Add(1)
	if len(req.Sets) == 0 {
		// Forward the degenerate request untouched; the replica owns the
		// error contract.
		p.relay(w, r, p.seqFor("batch-empty"), http.MethodPost, "/v1/batch", body)
		return
	}

	// Partition the sets over the ring by workload fingerprint.
	groups := make(map[string]*subBatch)
	var order []string // first-touched order, for deterministic dispatch
	for i, set := range req.Sets {
		seq := p.seqFor(routeKey(set.Workload))
		if len(seq) == 0 {
			p.m.noReplica.Add(1)
			service.WriteError(w, http.StatusServiceUnavailable, errors.New("no healthy replica on the ring"))
			return
		}
		owner := seq[0]
		g, exists := groups[owner]
		if !exists {
			g = &subBatch{seq: seq, req: service.BatchRequest{
				Analyzers: req.Analyzers, Options: req.Options, Workers: req.Workers,
			}}
			groups[owner] = g
			order = append(order, owner)
		}
		g.origSets = append(g.origSets, i)
		g.req.Sets = append(g.req.Sets, set)
	}

	// One owner: the common case for small batches — forward the original
	// body untouched, no re-merge needed.
	if len(groups) == 1 {
		p.relay(w, r, groups[order[0]].seq, http.MethodPost, "/v1/batch", body)
		return
	}

	// Fan the sub-batches out concurrently; each fails over independently
	// along its own ring sequence.
	type groupResult struct {
		g        *subBatch
		resp     service.BatchResponse
		served   string
		attempts int
		start    time.Time
		dur      time.Duration
		err      error
	}
	results := make([]groupResult, len(order))
	p.m.batchSplits.Add(uint64(len(order)))
	fanOut(order, func(gi int, owner string) {
		gr := &results[gi]
		gr.g, gr.start = groups[owner], time.Now()
		defer func() { gr.dur = time.Since(gr.start) }()
		payload, err := json.Marshal(gr.g.req)
		if err != nil {
			gr.err = err
			return
		}
		gr.resp, gr.served, gr.attempts, gr.err = p.subBatchCall(r.Context(), gr.g.seq, payload)
	})
	for _, gr := range results {
		detail := fmt.Sprintf("%d sets, %d attempts", len(gr.g.origSets), gr.attempts)
		if gr.err != nil {
			detail = "error: " + gr.err.Error()
		}
		span(r.Context(), "sub-batch", gr.served, gr.start, gr.dur, detail)
	}

	// Re-merge in deterministic set-major order: per-set job runs keep
	// their within-set (analyzer) order, set indices are rewritten back to
	// the caller's numbering, and sets are emitted in request order.
	perSet := make([][]service.BatchJobJSON, len(req.Sets))
	served := map[string]bool{}
	attempts := 1
	for _, gr := range results {
		if gr.served != "" {
			served[gr.served] = true
		}
		attempts = max(attempts, gr.attempts)
		if gr.err != nil {
			// A replica's own 4xx is the client's error, not an upstream
			// fault: relay it with its original status so the contract
			// does not depend on how the batch happened to shard.
			var rse *replicaStatusError
			if errors.As(gr.err, &rse) && rse.status < 500 {
				service.WriteError(w, rse.status, rse)
				return
			}
			p.m.upstreamErrors.Add(1)
			service.WriteError(w, http.StatusBadGateway, fmt.Errorf("batch split failed: %w", gr.err))
			return
		}
		for _, job := range gr.resp.Results {
			if job.SetIndex < 0 || job.SetIndex >= len(gr.g.origSets) {
				service.WriteError(w, http.StatusBadGateway,
					fmt.Errorf("replica returned set index %d for a %d-set sub-batch", job.SetIndex, len(gr.g.origSets)))
				return
			}
			orig := gr.g.origSets[job.SetIndex]
			job.SetIndex = orig
			perSet[orig] = append(perSet[orig], job)
		}
	}
	out := service.BatchResponse{Results: make([]service.BatchJobJSON, 0, len(req.Sets))}
	for _, jobs := range perSet {
		out.Results = append(out.Results, jobs...)
	}
	p.m.batchJobs.Add(uint64(len(out.Results)))
	// Attempts reports the worst sub-batch, so a failover anywhere in the
	// split is visible to the client.
	w.Header().Set(HeaderAttempts, strconv.Itoa(attempts))
	w.Header().Set(HeaderReplica, strings.Join(sortedKeys(served), ","))
	service.WriteJSON(w, http.StatusOK, out)
}

// subBatchCall runs one sub-batch with failover, decoding the reply. It
// returns the replica that actually served (which differs from the
// planned owner after a failover) and the attempt count.
func (p *Proxy) subBatchCall(ctx context.Context, seq []string, payload []byte) (service.BatchResponse, string, int, error) {
	var lastErr error
	tries := 0
	for i, rep := range seq {
		tries++
		if i > 0 {
			p.m.failovers.Add(1)
		}
		resp, err := p.post(ctx, http.MethodPost, rep, "/v1/batch", payload)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return service.BatchResponse{}, "", tries, err
			}
			continue
		}
		out, err, retry := decodeSubBatch(rep, resp)
		if err == nil {
			return out, rep, tries, nil
		}
		lastErr = err
		if !retry {
			break
		}
	}
	return service.BatchResponse{}, "", tries, lastErr
}

// replicaStatusError is a replica's authoritative non-2xx answer. The
// split path relays it verbatim, so a client error (400 analyzer spec,
// 422 invalid set) keeps its status and body no matter how the batch
// sharded — the same contract a single edfd gives.
type replicaStatusError struct {
	status int
	msg    string
}

func (e *replicaStatusError) Error() string { return e.msg }

// decodeSubBatch consumes one sub-batch response. retry reports whether
// the failure is worth the next ring node; an authoritative bad answer
// (4xx, undecodable body) is not.
func decodeSubBatch(rep string, resp *http.Response) (service.BatchResponse, error, bool) {
	var out service.BatchResponse
	body, err := readReply(resp)
	switch {
	case retryable(resp.StatusCode):
		return out, fmt.Errorf("replica %s: status %d", rep, resp.StatusCode), true
	case resp.StatusCode != http.StatusOK:
		var er service.ErrorResponse
		_ = service.DecodeJSON(body, &er)
		if er.Error == "" {
			er.Error = fmt.Sprintf("replica %s: status %d", rep, resp.StatusCode)
		}
		return out, &replicaStatusError{resp.StatusCode, er.Error}, false
	case err == nil:
		err = service.DecodeJSON(body, &out)
	}
	if err != nil {
		return service.BatchResponse{}, fmt.Errorf("replica %s: %w", rep, err), false
	}
	return out, nil, false
}

func (p *Proxy) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	body, req, ok := decodeBody[service.SessionRequest](w, r)
	if !ok {
		return
	}
	// Seeded sessions ride the seed's fingerprint (the admission cascade
	// re-analyzes grown variants of it, so affinity helps the cache);
	// seedless sessions spread round-robin over the ring.
	var key string
	if !req.Workload.IsZero() && req.Workload.Len() > 0 {
		key = routeKey(req.Workload)
	} else {
		p.mu.Lock()
		p.creates++
		key = "session-create-" + strconv.FormatUint(p.creates, 10)
		p.mu.Unlock()
	}
	// Creation is NOT idempotent: a create whose connection dies after
	// the replica committed it would leak a duplicate session if retried
	// elsewhere. Unlike analyze/batch it gets exactly one attempt — the
	// failed node is ejected passively, so a client retry lands on a
	// rebalanced ring.
	seq := p.seqFor(key)
	if len(seq) > 1 {
		seq = seq[:1]
	}
	rep, resp, ok := p.forward(w, r, seq, http.MethodPost, "/v1/sessions", body)
	if !ok {
		return
	}
	// Buffer the (small) reply to learn the session id before relaying.
	payload, err := readReply(resp)
	if err != nil {
		service.WriteError(w, http.StatusBadGateway, fmt.Errorf("reading session reply: %w", err))
		return
	}
	if resp.StatusCode == http.StatusCreated {
		var sr service.SessionResponse
		if service.DecodeJSON(payload, &sr) == nil && sr.ID != "" {
			p.recordOwner(sr.ID, rep)
			p.m.sessionCreates.Add(1)
		}
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(payload)
}

// recordOwner maps a session to its creator under the tracking bound.
func (p *Proxy) recordOwner(id, rep string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.owners) >= maxTrackedSessions {
		for victim := range p.owners { // arbitrary eviction; replicas hold the truth
			delete(p.owners, victim)
			break
		}
	}
	p.owners[id] = rep
}

// ownerOf resolves a session's owner: the recorded creator, or — for ids
// this proxy never saw created (restart, second proxy) — the ring-hash
// of the session id as a best-effort guess.
func (p *Proxy) ownerOf(id string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if rep, ok := p.owners[id]; ok {
		return rep
	}
	return p.ring.Get(id)
}

func (p *Proxy) dropOwner(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.owners, id)
}

// handleSession routes every /v1/sessions/{id}[/...] verb to the sticky
// owner. Sessions are stateful, so there is no blind failover — a
// takeover happens only when the owner is actually down (marked
// unhealthy, or failing a request AND the confirming health probe), and
// then the proxy reassigns the session to the next healthy ring node,
// which rehydrates it from the shared durable store. Only when no peer
// can serve the session (no peer left, or the fleet runs without a
// store) does the client see the 503 naming the owner.
func (p *Proxy) handleSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	owner := p.ownerOf(id)
	if owner == "" {
		p.m.noReplica.Add(1)
		service.WriteError(w, http.StatusServiceUnavailable, errors.New("no healthy replica on the ring"))
		return
	}
	body, err := service.ReadBody(r.Body, r.ContentLength)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	if len(body) == 0 {
		body = nil
	}
	tr := obs.FromContext(r.Context())
	if tr != nil {
		tr.Session = id
	}
	if !p.isHealthy(owner) {
		p.orphanOrTakeover(w, r, id, owner, body,
			fmt.Errorf("session %s is owned by replica %s, which is unavailable", id, owner))
		return
	}
	p.m.sessionRoutes.Add(1)
	start := time.Now()
	resp, err := p.post(r.Context(), r.Method, owner, r.URL.EscapedPath(), body)
	span(r.Context(), "route", owner, start, time.Since(start), outcome(resp, err))
	if err != nil {
		// A failed request does not prove the owner is dead: it may have
		// applied the decision with only the response lost (timeout,
		// reset), and re-executing it on a takeover peer would duplicate
		// the admit/commit while the live owner keeps its own copy of the
		// session. Probe the owner before any takeover: only a
		// confirmed-dead owner loses the session; a live one is
		// re-admitted and the client gets the 503 naming it, so a retry
		// lands back on the same replica. post already ejected the owner
		// passively; the probe re-admits it when it answers.
		if r.Context().Err() != nil {
			service.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("client canceled: %w", err))
			return
		}
		if !p.check(context.Background(), owner) {
			p.orphanOrTakeover(w, r, id, owner, body,
				fmt.Errorf("session %s: owner replica %s failed: %v", id, owner, err))
			return
		}
		p.m.sessionOrphans.Add(1)
		w.Header().Set(HeaderOwner, owner)
		service.WriteError(w, http.StatusServiceUnavailable,
			fmt.Errorf("session %s: request to owner replica %s failed but the owner is alive, retry: %v", id, owner, err))
		return
	}
	// The owner no longer knows the session (closed, TTL-swept) — or the
	// client closed it; either way the sticky mapping is stale.
	if resp.StatusCode == http.StatusNotFound ||
		(resp.StatusCode == http.StatusNoContent && r.Method == http.MethodDelete) {
		p.dropOwner(id)
	}
	w.Header().Set(HeaderReplica, owner)
	w.Header().Set(HeaderOwner, owner)
	w.Header().Set(HeaderAttempts, "1")
	p.stream(w, resp)
}

// orphanOrTakeover handles a dead session owner: try a takeover peer
// first, and only 503 (naming the owner, so the typed client can
// attribute the failure) when no peer could inherit the session.
func (p *Proxy) orphanOrTakeover(w http.ResponseWriter, r *http.Request, id, owner string, body []byte, cause error) {
	if p.takeover(w, r, id, owner, body) {
		return
	}
	p.m.sessionOrphans.Add(1)
	w.Header().Set(HeaderOwner, owner)
	service.WriteError(w, http.StatusServiceUnavailable, cause)
}

// takeover reassigns a dead owner's session to the next healthy ring
// node. The peer rehydrates the session from the shared store on the
// miss path, so the request is served — not 503d — and later requests
// stick to the new owner. A 404 from the peer means it could not
// rehydrate (the fleet runs without a shared store, or the session
// really is gone): the caller falls back to the orphan 503 so a
// store-less cluster keeps its old contract.
func (p *Proxy) takeover(w http.ResponseWriter, r *http.Request, id, deadOwner string, body []byte) bool {
	var target string
	for _, rep := range p.seqFor(id) {
		if rep != deadOwner {
			target = rep
			break
		}
	}
	if target == "" {
		return false
	}
	start := time.Now()
	resp, err := p.post(r.Context(), r.Method, target, r.URL.EscapedPath(), body)
	detail := outcome(resp, err)
	if err == nil {
		detail = "from " + deadOwner + ", " + detail
	}
	span(r.Context(), "takeover", target, start, time.Since(start), detail)
	if err != nil {
		p.m.takeoverFailed.Add(1)
		return false
	}
	if resp.StatusCode == http.StatusNotFound {
		_, _ = readReply(resp)
		p.m.takeoverFailed.Add(1)
		return false
	}
	p.m.takeovers.Add(1)
	p.recordOwner(id, target)
	p.log.Info("session taken over", "session", id, "from", deadOwner, "to", target)
	if resp.StatusCode == http.StatusNoContent && r.Method == http.MethodDelete {
		p.dropOwner(id)
	}
	w.Header().Set(HeaderReplica, target)
	w.Header().Set(HeaderOwner, target)
	w.Header().Set(HeaderTakeover, deadOwner)
	w.Header().Set(HeaderAttempts, "2")
	p.stream(w, resp)
	return true
}

func (p *Proxy) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// One snapshot, so the status, the count and the map always agree.
	states, healthy := p.replicaStates()
	reps := make(map[string]string, len(states))
	for rep, ok := range states {
		reps[rep] = "unhealthy"
		if ok {
			reps[rep] = "healthy"
		}
	}
	status, code := "ok", http.StatusOK
	if len(healthy) == 0 {
		status, code = "no healthy replicas", http.StatusServiceUnavailable
	}
	service.WriteJSON(w, code, map[string]any{
		"status":    status,
		"healthy":   len(healthy),
		"replicas":  reps,
		"total":     len(states),
		"uptime_ns": time.Since(p.started).Nanoseconds(),
	})
}

func (p *Proxy) handleMetrics(w http.ResponseWriter, r *http.Request) {
	_, healthy := p.replicaStates()
	scrapes := make([]replicaScrape, len(healthy))
	fanOut(healthy, func(i int, rep string) {
		page, err := p.fetch(r.Context(), rep, "/metrics")
		if err != nil {
			return
		}
		samples, types, err := parseScrape(bytes.NewReader(page))
		if err != nil {
			p.log.Warn("unparseable replica metrics page", "replica", rep, "err", err)
			return
		}
		scrapes[i] = replicaScrape{replica: rep, samples: samples, types: types}
	})
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	p.writeMetrics(w, slices.DeleteFunc(scrapes, func(sc replicaScrape) bool { return sc.replica == "" }))
}

// decodeBody decodes the request body as T through service.DecodeBody,
// the replicas' own decoder, answering 400 itself on failure. The raw
// bytes come back too, so forwarding reuses the client's exact payload
// instead of a re-encoding.
func decodeBody[T any](w http.ResponseWriter, r *http.Request) ([]byte, T, bool) {
	var req T
	body, err := service.DecodeBody(r, &req)
	if err != nil {
		service.WriteError(w, http.StatusBadRequest, err)
		return nil, req, false
	}
	return body, req, true
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
