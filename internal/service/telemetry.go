package service

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// defaultRecentTraces bounds GET /v1/traces without an explicit ?n=.
const defaultRecentTraces = 64

// TracesResponse lists recent traces, newest first.
type TracesResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
}

// Traced reports whether a request to path runs under a trace: every
// /v1 request but the observability reads, trace lookups and SSE feeds.
// Those reads, /healthz and /metrics bypass edfd's concurrency limiter
// and request timeout: they must answer, and keep streaming, even when
// the analysis path is saturated.
func Traced(path string) bool {
	return strings.HasPrefix(path, "/v1/") &&
		!strings.HasPrefix(path, "/v1/traces") &&
		!strings.HasSuffix(path, "/events")
}

// ServeTraced serves a traced request through h, for edfd and edfproxy
// alike, under ctx: the request's context or one derived from it (edfd's
// request timeout), so the request is cloned once, for the trace. It
// adopts the caller's trace id (edfproxy propagates one to its replicas)
// or mints a fresh one, and echoes it so a direct caller learns the id.
// The trace is recorded in rec after h returns; net/http flushes the
// buffered reply after that, so by the time the client reads the reply
// the trace is resolvable.
func ServeTraced(ctx context.Context, w http.ResponseWriter, r *http.Request, h http.Handler, rec *obs.Recorder, log *slog.Logger) {
	id := r.Header.Get(obs.TraceHeader)
	if id == "" {
		id = obs.NewTraceID()
	}
	tr := obs.StartTrace(id, opFor(r))
	w.Header().Set(obs.TraceHeader, id)
	h.ServeHTTP(w, r.WithContext(obs.WithTrace(ctx, tr)))
	rec.Record(tr)
	// Boxing the fields for Debug allocates even when the level is off.
	if log.Enabled(ctx, slog.LevelDebug) {
		log.Debug("request served", "op", tr.Op, "trace", tr.ID, "session", tr.Session, "path", tr.Path)
	}
}

// TraceList serves GET /v1/traces from rec on both daemons: the newest
// ?n= trace summaries, 64 without n. fail answers a malformed n.
func TraceList(rec *obs.Recorder, fail func(http.ResponseWriter, int, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := defaultRecentTraces
		if q := r.URL.Query().Get("n"); q != "" {
			v, err := strconv.Atoi(q)
			if err != nil || v < 0 {
				fail(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
				return
			}
			n = v
		}
		WriteJSON(w, http.StatusOK, TracesResponse{Traces: rec.Recent(n)})
	}
}

// opFor names a request's logical operation for its trace; both daemons
// trace through ServeTraced, so a fleet trace carries one op vocabulary.
func opFor(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/v1/")
	switch {
	case p == "analyze", p == "batch", p == "partition", p == "analyzers", p == "schema":
		return p
	case p == "sessions":
		return "session.open"
	case strings.HasPrefix(p, "sessions/"):
		rest := p[len("sessions/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			return rest[i+1:] // propose, propose-batch, commit, rollback
		}
		if r.Method == http.MethodDelete {
			return "session.close"
		}
		return "session.get"
	}
	return strings.ToLower(r.Method) + " " + p
}

// traceID returns the active trace's id ("" outside a traced request).
func traceID(ctx context.Context) string {
	if tr := obs.FromContext(ctx); tr != nil {
		return tr.ID
	}
	return ""
}

// tagTrace stamps the session (and optional decision path) onto the
// active trace.
func tagTrace(ctx context.Context, session, path string) {
	if tr := obs.FromContext(ctx); tr != nil {
		tr.Session = session
		if path != "" {
			tr.Path = path
		}
	}
}

// publish stamps the active trace id onto ev and puts it on the feed.
func (s *Server) publish(ctx context.Context, ev obs.Event) {
	if ev.Trace == "" {
		ev.Trace = traceID(ctx)
	}
	s.hub.Publish(ev)
}

// publishDecision emits the admit/reject event for one proposal.
func (s *Server) publishDecision(ctx context.Context, session string, out ProposeOutcome, latency time.Duration) {
	typ := obs.EventReject
	if out.Admitted {
		typ = obs.EventAdmit
	}
	s.publish(ctx, obs.Event{
		Type:        typ,
		Session:     session,
		Path:        out.Path,
		Verdict:     out.Result.Verdict.String(),
		Admitted:    out.Admitted,
		Utilization: out.Utilization,
		LatencyNS:   latency.Nanoseconds(),
	})
}

// publishExpired turns the TTL sweeper's removals into expire events.
// Nothing upstream carries a trace for a sweep, so each event gets a
// minted trace that records the expiry itself — every feed event resolves
// to a trace, without exceptions for server-initiated decisions.
func (s *Server) publishExpired(ids []string) {
	// The sweep is a decision too: journal expire records so a restart
	// cannot resurrect sessions the TTL already removed.
	s.journalExpired(ids)
	for _, id := range ids {
		tr := obs.StartTrace(obs.NewTraceID(), "session.expire")
		tr.Session = id
		tr.EndSpan("expire", tr.Start(), "idle ttl")
		s.traces.Record(tr)
		s.hub.Publish(obs.Event{Type: obs.EventExpire, Session: id, Trace: tr.ID})
		s.log.Info("session expired", "session", id, "trace", tr.ID)
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	t, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		s.fail(w, http.StatusNotFound, fmt.Errorf("service: unknown trace"))
		return
	}
	WriteJSON(w, http.StatusOK, t)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sub := s.hub.Subscribe("", 0)
	defer sub.Close()
	obs.ServeSSE(w, r, sub.Events(), s.stop)
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe before the existence check so no decision can fall between
	// the check and the subscription.
	sub := s.hub.Subscribe(id, 0)
	defer sub.Close()
	_, release, err := s.ensureSession(id)
	if err != nil {
		s.fail(w, http.StatusNotFound, err)
		return
	}
	release()
	obs.ServeSSE(w, r, sub.Events(), s.stop)
}
