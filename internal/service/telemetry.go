package service

import (
	"context"
	"fmt"
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

// StreamingPath reports whether a /v1/ path serves observability reads:
// trace lookups and SSE feeds. They bypass the concurrency limiter and
// the request timeout — they must answer (and keep streaming) even when
// the analysis path is saturated — and no trace is minted for them. The
// proxy shares the predicate so both daemons treat the same paths as
// streaming.
func StreamingPath(p string) bool {
	return p == "/v1/events" ||
		strings.HasPrefix(p, "/v1/traces") ||
		strings.HasSuffix(p, "/events")
}

// OpFor names a request's logical operation for its trace. edfd and
// edfproxy share it so a fleet trace carries one op vocabulary.
func OpFor(r *http.Request) string {
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

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	n := defaultRecentTraces
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			s.fail(w, http.StatusBadRequest, fmt.Errorf("invalid n %q", q))
			return
		}
		n = v
	}
	WriteJSON(w, http.StatusOK, TracesResponse{Traces: s.traces.Recent(n)})
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
	obs.ServeSSE(w, r, s.hub.Subscribe("", 0), 0, s.stop)
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// Subscribe before the existence check so no decision can fall between
	// the check and the subscription.
	sub := s.hub.Subscribe(id, 0)
	_, release, err := s.ensureSession(id)
	if err != nil {
		sub.Close()
		s.fail(w, http.StatusNotFound, err)
		return
	}
	release()
	obs.ServeSSE(w, r, sub, 0, s.stop)
}
