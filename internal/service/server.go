package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/workload"
)

// Config tunes the server. The zero value selects production defaults.
type Config struct {
	// CacheCapacity bounds the result cache (entries); 0 selects
	// DefaultCacheCapacity, negative disables caching.
	CacheCapacity int
	// Workers bounds the batch worker pool; <= 0 selects runtime.NumCPU.
	Workers int
	// MaxInFlight bounds concurrently served /v1 requests; excess
	// requests are rejected with 429 rather than queued. 0 selects
	// DefaultMaxInFlight.
	MaxInFlight int
	// RequestTimeout caps one request's analysis work; 0 selects
	// DefaultRequestTimeout.
	RequestTimeout time.Duration
	// MaxSessions bounds concurrently open admission sessions; 0 selects
	// DefaultMaxSessions.
	MaxSessions int
	// SessionTTL closes admission sessions idle past this duration; 0 (the
	// default) disables sweeping, preserving the sessions-live-until-closed
	// behavior.
	SessionTTL time.Duration
	// Logger receives structured request and session lifecycle logs
	// (trace/session attrs attached); nil discards them.
	Logger *slog.Logger
	// Store, when non-nil, makes admission sessions durable: every
	// open/admit/commit/rollback/close/expire decision is journaled to
	// its write-ahead log, a restarting server replays its sessions back
	// to life, and a session-miss rehydrates from the store — which,
	// over a shared directory, is the cluster takeover path.
	Store store.Store
	// SnapshotInterval is the cadence of compacting store snapshots; 0
	// selects DefaultSnapshotInterval. Only used when Store is set.
	SnapshotInterval time.Duration
}

// Defaults for Config's zero values.
const (
	DefaultCacheCapacity  = 4096
	DefaultMaxInFlight    = 256
	DefaultRequestTimeout = 30 * time.Second
	DefaultMaxSessions    = 1024
	// DefaultSnapshotInterval is the compacting-snapshot cadence when a
	// store is configured without an explicit interval.
	DefaultSnapshotInterval = 30 * time.Second
)

// Fixed limits.
const (
	// MaxRequestBytes caps a request body on edfd and edfproxy alike,
	// the proxy's reads of replica replies, and the buffer the typed
	// client preallocates for a reply.
	MaxRequestBytes = 8 << 20
	// maxBatchJobs bounds sets x analyzers per batch request.
	maxBatchJobs = 4096
)

// Server is the edfd daemon: engine registry in, HTTP/JSON out. Construct
// with New and mount Handler on an http.Server.
type Server struct {
	cfg      Config
	cache    *Cache
	sessions *sessionStore
	limiter  chan struct{}
	m        metrics
	started  time.Time
	log      *slog.Logger
	hub      *obs.Hub
	traces   *obs.Recorder
	// store, when non-nil, journals session decisions durably (see
	// Config.Store). The server does not own its lifecycle: the creator
	// closes it after the HTTP server has drained.
	store store.Store
	// missMu guards misses, the negative rehydrate cache: session ids a
	// store lookup recently found absent (see recentMiss/noteMiss).
	missMu sync.Mutex
	misses map[string]time.Time
	// stop ends the long-lived observability streams (SSE feeds) and the
	// session sweeper so a graceful shutdown is not held open by them.
	stop      chan struct{}
	closeOnce sync.Once
	// snapdone waits for the snapshotter, whose shutdown path writes a
	// final compacting snapshot; Close blocks on it so the creator can
	// close the store right after Close returns.
	snapdone sync.WaitGroup
}

// New builds a server from the config.
func New(cfg Config) *Server {
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = DefaultCacheCapacity
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultMaxInFlight
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		cfg:      cfg,
		cache:    NewCache(cfg.CacheCapacity),
		sessions: newSessionStore(cfg.MaxSessions),
		limiter:  make(chan struct{}, cfg.MaxInFlight),
		started:  time.Now(),
		log:      log,
		hub:      obs.NewHub(),
		traces:   obs.NewRecorder(0),
		stop:     make(chan struct{}),
	}
	s.sessions.onExpired = s.publishExpired
	if cfg.Store != nil {
		s.store = cfg.Store
		// Replay the journal before any request (or the sweeper) can see
		// the session map: a restarted edfd resumes exactly the sessions
		// it had committed, then snapshots them periodically so the log
		// stays compact.
		s.recoverSessions()
		interval := cfg.SnapshotInterval
		if interval <= 0 {
			interval = DefaultSnapshotInterval
		}
		s.snapdone.Add(1)
		go func() {
			defer s.snapdone.Done()
			s.snapshotter(interval)
		}()
	}
	if cfg.SessionTTL > 0 {
		// Sweep a few times per TTL so expiry lags the deadline by at
		// most ~a quarter of it.
		interval := max(cfg.SessionTTL/4, 10*time.Millisecond)
		go s.sessions.sweeper(cfg.SessionTTL, interval, s.stop)
	}
	return s
}

// Close stops the background session sweeper and ends open SSE streams so
// a graceful shutdown can drain. The request/response paths keep serving;
// Close only releases the long-lived goroutines — but it does wait for
// the snapshotter's final compacting snapshot, so a caller may close the
// store as soon as Close returns without racing that write.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stop) })
	s.snapdone.Wait()
}

// CacheStats exposes the cache counters (for in-process embedders).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Handler returns the routed and instrumented HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/partition", s.handlePartition)
	mux.HandleFunc("GET /v1/analyzers", s.handleAnalyzers)
	mux.HandleFunc("GET /v1/schema", s.handleSchema)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /v1/sessions/{id}/propose", s.handleSessionPropose)
	mux.HandleFunc("POST /v1/sessions/{id}/propose-batch", s.handleSessionProposeBatch)
	mux.HandleFunc("POST /v1/sessions/{id}/commit", s.handleSessionCommit)
	mux.HandleFunc("POST /v1/sessions/{id}/rollback", s.handleSessionRollback)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /v1/traces", TraceList(s.traces, s.fail))
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTrace)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, MaxRequestBytes)
		if !Traced(r.URL.Path) {
			mux.ServeHTTP(w, r)
			return
		}
		select {
		case s.limiter <- struct{}{}:
			defer func() { <-s.limiter }()
		default:
			s.m.throttled.Add(1)
			WriteError(w, http.StatusTooManyRequests, errors.New("server at capacity, retry later"))
			return
		}
		s.m.enter()
		defer s.m.leave()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		ServeTraced(ctx, w, r, mux, s.traces, s.log)
	})
}

// analyzeOne serves one (workload, analyzer, options) analysis through
// the cache: a hit costs one lookup, a miss runs the analyzer via the
// batch runner (one job) so cancellation and wall-time telemetry stay
// uniform with the batch path.
func (s *Server) analyzeOne(ctx context.Context, wl workload.Workload, a engine.Analyzer, opt core.Options) (core.Result, time.Duration, bool, string, error) {
	tr := obs.FromContext(ctx)
	var lookup time.Time
	if tr != nil {
		lookup = time.Now()
	}
	fp, cacheable := engine.WorkloadFingerprint(wl, a.Info().Name, opt)
	if cacheable {
		if res, hit := s.cache.Get(fp); hit {
			if tr != nil {
				tr.EndSpan("cache", lookup, "hit")
			}
			return res, 0, true, fp, nil
		}
	}
	var stages obs.StageLog
	if tr != nil {
		detail := "miss"
		if !cacheable {
			detail = "bypass"
		}
		tr.EndSpan("cache", lookup, detail)
		opt.Stages = &stages
	}
	run := time.Now()
	jr := engine.Run(ctx, []engine.Job{{Workload: wl, Analyzer: a, Opt: opt}}, engine.RunOptions{Workers: 1})[0]
	if jr.Err != nil {
		if tr != nil {
			tr.EndSpan("analyze", run, "error")
		}
		return core.Result{}, 0, false, fp, jr.Err
	}
	s.m.promotions.Add(jr.Promotions)
	if tr != nil {
		end := time.Now()
		stages.SpansInto(tr, end)
		tr.EndSpan("analyze", run, jr.Result.Verdict.String())
	}
	if cacheable {
		s.cache.Put(fp, jr.Result)
	}
	return jr.Result, jr.Wall, false, fp, nil
}

// failAnalysis maps an analysis error to its status: 422 for a workload
// the analyzer cannot run, 503 for a canceled request.
func (s *Server) failAnalysis(w http.ResponseWriter, err error) {
	var unsup *engine.EventsUnsupportedError
	var part *engine.PartitionedUnsupportedError
	if errors.As(err, &unsup) || errors.As(err, &part) {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.fail(w, http.StatusServiceUnavailable, fmt.Errorf("analysis canceled: %w", err))
}

// errPartitionedEndpoint rejects partitioned workloads on the
// uniprocessor endpoints.
var errPartitionedEndpoint = errors.New("partitioned workloads are served by POST /v1/partition")

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := req.Workload.Validate(); err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	if req.Workload.Kind() == workload.Partitioned {
		s.fail(w, http.StatusUnprocessableEntity, errPartitionedEndpoint)
		return
	}
	a, opt, err := resolveAnalysis(req.Analyzer, req.Options)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	res, wall, cached, fp, err := s.analyzeOne(r.Context(), req.Workload, a, opt)
	if err != nil {
		s.failAnalysis(w, err)
		return
	}
	s.m.analyses.Add(1)
	if req.Workload.Kind() == workload.Events {
		s.m.eventAnalyses.Add(1)
	}
	WriteJSON(w, http.StatusOK, AnalyzeResponse{
		Name:        req.Name,
		Model:       string(req.Workload.Kind()),
		Analyzer:    a.Info().Name,
		Result:      NewResultJSON(res),
		WallNS:      wall.Nanoseconds(),
		Cached:      cached,
		Fingerprint: fp,
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Sets) == 0 {
		s.fail(w, http.StatusUnprocessableEntity, errors.New("batch needs at least one set"))
		return
	}
	spec := strings.Join(req.Analyzers, ",")
	if spec == "" {
		spec = "cascade"
	}
	analyzers, err := engine.Parse(spec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	opt, err := req.Options.Core()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	if jobs := len(req.Sets) * len(analyzers); jobs > maxBatchJobs {
		s.fail(w, http.StatusUnprocessableEntity,
			fmt.Errorf("batch of %d jobs exceeds the limit of %d", jobs, maxBatchJobs))
		return
	}
	wls := make([]workload.Workload, len(req.Sets))
	for i, ws := range req.Sets {
		wls[i] = ws.Workload
		if err := wls[i].Validate(); err != nil {
			s.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("set %d: %w", i, err))
			return
		}
		if wls[i].Kind() == workload.Partitioned {
			s.fail(w, http.StatusUnprocessableEntity, fmt.Errorf("set %d: %w", i, errPartitionedEndpoint))
			return
		}
	}

	// Split the cross product into cache hits, capability rejections and
	// jobs that must run, in set-major order so the response order matches
	// the batch contract.
	out := make([]BatchJobJSON, 0, len(wls)*len(analyzers))
	var jobs []engine.Job
	var jobFor []int // jobs[k] fills out[jobFor[k]]
	var fps []string
	for wi, wl := range wls {
		for _, a := range analyzers {
			j := BatchJobJSON{
				SetIndex: wi,
				SetName:  req.Sets[wi].Name,
				Model:    string(wl.Kind()),
				Analyzer: a.Info().Name,
			}
			// Capability gate: an event workload on a non-event analyzer
			// can never produce a verdict — report the typed error without
			// spending a worker slot or a cache lookup.
			if wl.Kind() == workload.Events && !a.Info().Events {
				err := &engine.EventsUnsupportedError{Analyzer: a.Info().Name}
				j.Result = NewResultJSON(core.Result{Verdict: core.Undecided})
				j.Err = err.Error()
				out = append(out, j)
				continue
			}
			fp, cacheable := engine.WorkloadFingerprint(wl, a.Info().Name, opt)
			if cacheable {
				if res, hit := s.cache.Get(fp); hit {
					j.Result = NewResultJSON(res)
					j.Cached = true
					out = append(out, j)
					continue
				}
			}
			jobs = append(jobs, engine.Job{SetIndex: wi, SetName: req.Sets[wi].Name, Workload: wl, Analyzer: a, Opt: opt})
			jobFor = append(jobFor, len(out))
			if !cacheable {
				fp = ""
			}
			fps = append(fps, fp)
			out = append(out, j)
		}
	}
	// The client may shrink the worker pool below the server's bound but
	// never widen it past the operator's -workers setting.
	workers := req.Workers
	if workers <= 0 || (s.cfg.Workers > 0 && workers > s.cfg.Workers) {
		workers = s.cfg.Workers
	}
	run := time.Now()
	for k, jr := range engine.Run(r.Context(), jobs, engine.RunOptions{Workers: workers}) {
		j := &out[jobFor[k]]
		j.Result = NewResultJSON(jr.Result)
		j.WallNS = jr.Wall.Nanoseconds()
		s.m.promotions.Add(jr.Promotions)
		if jr.Err != nil {
			j.Err = jr.Err.Error()
			continue
		}
		if fps[k] != "" {
			s.cache.Put(fps[k], jr.Result)
		}
	}
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.EndSpan("batch", run, fmt.Sprintf("%d jobs, %d ran", len(out), len(jobs)))
	}
	s.m.batchJobs.Add(uint64(len(out)))
	WriteJSON(w, http.StatusOK, BatchResponse{Results: out})
}

// handlePartition places a partitioned workload onto its processors,
// verifying the final bins through the cache-backed batch runner, and
// reports either the proven placement or the counterexample trail.
func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	var req PartitionRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Workload.Kind() != workload.Partitioned {
		s.fail(w, http.StatusUnprocessableEntity,
			fmt.Errorf("partition needs a %q workload, got %q (uniprocessor workloads are served by POST /v1/analyze)",
				workload.Partitioned, req.Workload.Kind()))
		return
	}
	if err := req.Workload.Validate(); err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	a, opt, err := resolveAnalysis(req.Analyzer, req.Options)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	hs, err := partition.ParseHeuristics(req.Heuristics)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// Same clamp as batch: callers may shrink the pool, never widen it.
	workers := req.Workers
	if workers <= 0 || (s.cfg.Workers > 0 && workers > s.cfg.Workers) {
		workers = s.cfg.Workers
	}
	start := time.Now()
	pl, err := partition.Place(r.Context(), req.Workload, partition.Config{
		Analyzer:   a.Info().Name,
		Options:    opt,
		Workers:    workers,
		Cache:      s.cache,
		Heuristics: hs,
	})
	if err != nil {
		s.failAnalysis(w, err)
		return
	}
	s.m.partitionRequests.Add(1)
	if pl.Feasible {
		s.m.partitionFeasible.Add(1)
	} else {
		s.m.partitionInfeasible.Add(1)
	}
	s.m.partitionBinChecks.Add(pl.Stats.BinChecks)
	s.m.partitionBinCacheHits.Add(pl.Stats.CacheHits)
	s.m.partitionGateRejections.Add(pl.Stats.GateRejections)
	s.m.promotions.Add(pl.Stats.Promotions)
	if tr := obs.FromContext(r.Context()); tr != nil {
		// One span per processor under the placement span, so the trace
		// tree shows every bin's verdict and verification cost.
		off := start.Sub(tr.Start()).Nanoseconds()
		for _, rep := range pl.Processors {
			detail := fmt.Sprintf("%d tasks, %s", len(rep.Tasks), rep.Verdict)
			if rep.CacheHit {
				detail += " (cached)"
			}
			tr.AddSpan(obs.Span{
				Name:    fmt.Sprintf("bin:p%d", rep.Index),
				StartNS: off,
				DurNS:   rep.WallNS,
				Detail:  detail,
			})
		}
		detail := fmt.Sprintf("feasible via %s, %d bin checks", pl.Heuristic, pl.Stats.BinChecks)
		if !pl.Feasible {
			detail = "infeasible"
			if ce := pl.Counterexample; ce != nil {
				detail = fmt.Sprintf("infeasible, task %d unplaceable after %d", ce.FailedTask, ce.Placed)
			}
		}
		tr.EndSpan("place", start, detail)
	}
	WriteJSON(w, http.StatusOK, PartitionResponse{
		Name:      req.Name,
		Model:     string(workload.Partitioned),
		Analyzer:  a.Info().Name,
		Placement: pl,
		WallNS:    time.Since(start).Nanoseconds(),
	})
}

// analyzersJSON renders the registry in wire form.
func analyzersJSON() []AnalyzerJSON {
	all := engine.All()
	out := make([]AnalyzerJSON, len(all))
	for i, a := range all {
		info := a.Info()
		out[i] = AnalyzerJSON{
			Name:     info.Name,
			Label:    info.Label,
			Kind:     info.Kind.String(),
			Blocking: info.Blocking,
			Events:   info.Events,
		}
	}
	return out
}

func (s *Server) handleAnalyzers(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, analyzersJSON())
}

// handleSchema declares what this server speaks: the wire version, the
// workload models, the analyzer registry and the placement heuristics.
func (s *Server) handleSchema(w http.ResponseWriter, _ *http.Request) {
	hs := partition.AllHeuristics()
	names := make([]string, len(hs))
	for i, h := range hs {
		names[i] = string(h)
	}
	WriteJSON(w, http.StatusOK, SchemaResponse{
		WireVersion: WireVersion,
		Models: []string{
			string(workload.Sporadic),
			string(workload.Events),
			string(workload.Partitioned),
		},
		Analyzers:  analyzersJSON(),
		Heuristics: names,
	})
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	var req SessionRequest
	if !s.decode(w, r, &req) {
		return
	}
	opt, err := req.Options.Core()
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	adm, err := NewAdmission(AdmissionConfig{Analyzer: req.Analyzer, Options: opt, Seed: req.Workload})
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.m.promotions.Add(adm.Stats().Promotions)
	id, e, err := s.sessions.open(adm, req.Analyzer, req.Options)
	if err != nil {
		s.fail(w, http.StatusTooManyRequests, err)
		return
	}
	if err := s.journalOpen(id, e, req); err != nil {
		// No durable open record, no session: handing out an id that a
		// restart would forget is worse than failing the open.
		s.sessions.close(id)
		s.m.journalErrors.Add(1)
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("journaling session open: %w", err))
		return
	}
	tagTrace(r.Context(), id, "")
	st := s.sessionState(id, adm)
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.EndSpan("open", start, fmt.Sprintf("%s/%s, %d seeded", st.Analyzer, st.Model, st.Committed))
	}
	s.publish(r.Context(), obs.Event{Type: obs.EventOpen, Session: id, Utilization: st.Utilization})
	s.log.Info("session opened", "session", id, "trace", traceID(r.Context()),
		"analyzer", st.Analyzer, "model", st.Model, "seed", st.Committed)
	WriteJSON(w, http.StatusCreated, st)
}

// session resolves the {id} path value, answering 404 itself on a miss.
// With a store configured, a miss first tries to rehydrate the session
// from the shared directory — the takeover path, where this replica
// inherits a dead owner's session. The session is held in-flight (safe
// from the TTL sweeper) until the returned release runs; the caller
// must defer it on success.
func (s *Server) session(w http.ResponseWriter, r *http.Request) (string, *sessionEntry, func(), bool) {
	id := r.PathValue("id")
	e, release, err := s.ensureSession(id)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return "", nil, nil, false
	}
	return id, e, release, true
}

func (s *Server) sessionState(id string, adm *Admission) SessionResponse {
	committed, pending, util := adm.Counts()
	return SessionResponse{
		ID:          id,
		Model:       string(adm.Model()),
		Analyzer:    adm.Analyzer(),
		Committed:   committed,
		Pending:     pending,
		Utilization: util,
	}
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	if id, e, release, ok := s.session(w, r); ok {
		defer release()
		WriteJSON(w, http.StatusOK, s.sessionState(id, e.adm))
	}
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.PathValue("id")
	if !s.sessions.close(id) {
		// A store-backed replica may be asked to close a session it never
		// held live (the owner died after opening it): rehydrate, then
		// close, so the close record lands in the log.
		if !s.rehydrate(id) || !s.sessions.close(id) {
			s.fail(w, http.StatusNotFound, errSessionUnknown)
			return
		}
	}
	s.journalClose(id)
	tagTrace(r.Context(), id, "")
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.EndSpan("close", start, "")
	}
	s.publish(r.Context(), obs.Event{Type: obs.EventClose, Session: id})
	s.log.Info("session closed", "session", id, "trace", traceID(r.Context()))
	w.WriteHeader(http.StatusNoContent)
}

// newProposeResponse converts an admission outcome to its wire form.
func newProposeResponse(out ProposeOutcome) ProposeResponse {
	return ProposeResponse{
		Admitted:    out.Admitted,
		Result:      NewResultJSON(out.Result),
		Utilization: out.Utilization,
		Committed:   out.Committed,
		Pending:     out.Pending,
		Escalated:   out.Escalated,
		Path:        out.Path,
	}
}

// countProposePath splits a decision into the incremental/escalated
// telemetry counters and folds in its arithmetic fast-path exits.
func (s *Server) countProposePath(out ProposeOutcome) {
	if out.Escalated {
		s.m.escalated.Add(1)
	} else {
		s.m.incremental.Add(1)
	}
	s.m.promotions.Add(out.Promotions)
}

func (s *Server) handleSessionPropose(w http.ResponseWriter, r *http.Request) {
	id, e, release, ok := s.session(w, r)
	if !ok {
		return
	}
	defer release()
	var req ProposeRequest
	if !s.decode(w, r, &req) {
		return
	}
	start := time.Now()
	out, err := s.proposeJournaled(e, id, req.Task)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	latency := time.Since(start)
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.Session, tr.Path = id, out.Path
		out.Stages.SpansInto(tr, time.Now())
		tr.EndSpan("propose", start, out.Path+" "+out.Result.Verdict.String())
	}
	s.m.proposeNS.observe(latency.Nanoseconds(), 1)
	s.m.proposals.Add(1)
	s.countProposePath(out)
	s.publishDecision(r.Context(), id, out, latency)
	WriteJSON(w, http.StatusOK, newProposeResponse(out))
}

func (s *Server) handleSessionProposeBatch(w http.ResponseWriter, r *http.Request) {
	id, e, release, ok := s.session(w, r)
	if !ok {
		return
	}
	defer release()
	var req ProposeBatchRequest
	if !s.decode(w, r, &req) {
		return
	}
	start := time.Now()
	outs, err := s.proposeBatchJournaled(e, id, req.Tasks)
	if err != nil {
		s.fail(w, http.StatusUnprocessableEntity, err)
		return
	}
	// One wall-clock measurement spread evenly over the batch keeps the
	// histogram's per-proposal semantics without timing each task inside
	// the critical section.
	perTask := time.Since(start) / time.Duration(len(outs))
	tr := obs.FromContext(r.Context())
	if tr != nil {
		tr.Session = id
	}
	s.m.proposeNS.observe(perTask.Nanoseconds(), len(outs))
	s.m.proposals.Add(uint64(len(outs)))
	s.m.proposeBatches.Add(1)
	resp := ProposeBatchResponse{Results: make([]ProposeResponse, len(outs))}
	escalations := 0
	for i, out := range outs {
		s.countProposePath(out)
		s.publishDecision(r.Context(), id, out, perTask)
		if out.Escalated {
			escalations++
			// Stage spans of every escalation would swamp a large batch's
			// trace; keep the first few, the count goes in the summary span.
			if tr != nil && len(tr.Spans) < 64 {
				outs[i].Stages.SpansInto(tr, time.Now())
			}
		}
		resp.Results[i] = newProposeResponse(out)
	}
	if tr != nil {
		// The batch's path is its most expensive member's.
		tr.Path = obs.PathGate
		for _, out := range outs {
			if out.Path == obs.PathFast && tr.Path == obs.PathGate {
				tr.Path = obs.PathFast
			}
			if out.Path == obs.PathCascade {
				tr.Path = obs.PathCascade
				break
			}
		}
		tr.EndSpan("propose-batch", start, fmt.Sprintf("%d tasks, %d escalated", len(outs), escalations))
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionCommit(w http.ResponseWriter, r *http.Request) {
	s.finishPending(w, r, obs.EventCommit, (*Admission).Commit)
}

func (s *Server) handleSessionRollback(w http.ResponseWriter, r *http.Request) {
	s.finishPending(w, r, obs.EventRollback, (*Admission).Rollback)
}

// finishPending serves commit and rollback, which differ only in the
// Admission method they invoke and the feed event they publish.
func (s *Server) finishPending(w http.ResponseWriter, r *http.Request, event string, move func(*Admission) FinishOutcome) {
	id, e, release, ok := s.session(w, r)
	if !ok {
		return
	}
	defer release()
	start := time.Now()
	out := s.finishJournaled(e, id, event, move)
	tagTrace(r.Context(), id, "")
	if tr := obs.FromContext(r.Context()); tr != nil {
		tr.EndSpan(event, start, fmt.Sprintf("%d tasks moved", out.Moved))
	}
	s.publish(r.Context(), obs.Event{
		Type:        event,
		Session:     id,
		Moved:       out.Moved,
		Utilization: out.Utilization,
		LatencyNS:   time.Since(start).Nanoseconds(),
	})
	WriteJSON(w, http.StatusOK, CommitResponse{
		Moved:       out.Moved,
		Committed:   out.Committed,
		Utilization: out.Utilization,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"uptime_ns": time.Since(s.started).Nanoseconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.writeMetrics(w)
}

// resolveAnalysis maps wire analyzer/options to engine values.
func resolveAnalysis(name string, oj OptionsJSON) (engine.Analyzer, core.Options, error) {
	if name == "" {
		name = "cascade"
	}
	a, ok := engine.Get(name)
	if !ok {
		return nil, core.Options{}, fmt.Errorf("unknown analyzer %q (see GET /v1/analyzers)", name)
	}
	opt, err := oj.Core()
	return a, opt, err
}

// decode parses a JSON body through DecodeBody, answering 400 itself on
// failure.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if _, err := DecodeBody(r, v); err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

// DecodeBody reads a request body once and decodes it into v through
// DecodeJSON; it is the one request decoder of edfd and edfproxy. The
// bytes come back for callers that forward them.
func DecodeBody(r *http.Request, v any) ([]byte, error) {
	body, err := ReadBody(r.Body, r.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("reading request: %w", err)
	}
	if err := DecodeJSON(body, v); err != nil {
		return nil, fmt.Errorf("decoding request: %w", err)
	}
	return body, nil
}

// maxBodyPrealloc caps the buffer ReadBody reserves for a declared body
// length. The length is the sender's claim: a header must not reserve
// MaxRequestBytes for a body that never comes, so a longer body grows the
// buffer as its bytes arrive.
const maxBodyPrealloc = 64 << 10

// ReadBody reads r to EOF into one buffer sized by n, the body's declared
// length (an http Content-Length, negative when unknown), and returns the
// bytes and the first read error other than io.EOF. It is the one body
// reader of both daemons, edfproxy's replica replies and the typed
// client: a body of its declared length up to maxBodyPrealloc fills one
// allocation.
func ReadBody(r io.Reader, n int64) ([]byte, error) {
	if n < 0 {
		n = 512 // io.ReadAll's first buffer
	}
	// One byte more than the body, so the read that reports EOF needs no
	// room of its own.
	b := make([]byte, 0, min(n, maxBodyPrealloc)+1)
	for {
		k, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+k]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// DecodeJSON decodes one whole body into v, the twin of EncodeJSON. A v
// that implements json.Unmarshaler, as every request carrying a workload
// or a proposal and every hot reply does, decodes the bytes itself, so
// encoding/json's outer syntax check and skip do not run on top of its
// own; any other v goes through json.Unmarshal. Either way the whole body
// is checked as json.Valid checks it, by workload.Scanner's check or by
// encoding/json's scanner, so trailing bytes after the value are an
// error, and a body with a syntax error gets encoding/json's
// *json.SyntaxError. DecodeBody calls it for both daemons' requests, and
// the typed client for every reply.
func DecodeJSON(body []byte, v any) error {
	if u, ok := v.(json.Unmarshaler); ok {
		return u.UnmarshalJSON(body)
	}
	return json.Unmarshal(body, v)
}

// fail writes the uniform typed error body and counts the error.
func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.m.errors.Add(1)
	WriteError(w, code, err)
}

// WriteError writes err as the uniform typed error body with status
// code, for edfd and edfproxy alike.
func WriteError(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, ErrorFor(code, err).Response())
}

// WriteJSON writes v as a reply with status code; it is the one reply
// writer of edfd and edfproxy, the twin of DecodeBody. The body is the
// bytes json.NewEncoder(w).Encode(v) writes, the trailing newline
// included, sent with its Content-Length. v is encoded before the status
// is written, so a value that cannot be encoded (a NaN float) answers 500
// with the typed error body instead of a success status with no body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	b, err := EncodeJSON(v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = EncodeJSON(ErrorFor(code, fmt.Errorf("encoding reply: %w", err)).Response()) // strings always encode
	}
	b = append(b, '\n')
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(code)
	// A write fails only on a broken connection; nothing useful can be
	// sent at that point.
	_, _ = w.Write(b)
}

// EncodeJSON returns json.Marshal(v)'s bytes in one pass. A v that
// implements json.Marshaler, as every hand-encoded request and reply type
// does, writes them itself, so encoding/json's compaction of its output
// does not run on top; any other v goes through json.Marshal. The
// hand-encoded types write compact, escaped JSON identical to
// encoding/json's (TestWireEncodeMatchesReference, FuzzWireEncode), and
// the daemons still check the syntax of every body they receive
// (DecodeJSON).
func EncodeJSON(v any) ([]byte, error) {
	if m, ok := v.(json.Marshaler); ok {
		return m.MarshalJSON()
	}
	return json.Marshal(v)
}
