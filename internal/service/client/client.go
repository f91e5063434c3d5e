// Package client is the typed Go client for the edfd feasibility service.
// It speaks the wire types of package service, so a Go caller and a curl
// caller see the same schema.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/service"
)

// Client talks to one edfd server.
type Client struct {
	base string
	hc   *http.Client
}

// New builds a client for a base URL like "http://127.0.0.1:8080". A nil
// httpClient selects http.DefaultClient.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: httpClient}
}

// Error is a non-2xx server reply. It wraps the server's typed
// *service.Error, so both of these work:
//
//	var ce *client.Error
//	errors.As(err, &ce) // HTTP-level view: status code included
//
//	var se *service.Error
//	errors.As(err, &se) // wire-level view: code/message/owner/retryable
type Error struct {
	StatusCode int
	Message    string
	// Code classifies the failure (the service.Code* constants), derived
	// from the status when the reply predates the typed error shape.
	Code string
	// Retryable reports whether the same request may succeed later.
	Retryable bool
	// Owner names the replica that owns the failed session when the
	// cluster proxy attributed the failure (X-Edf-Owner); "" otherwise.
	// A 503 with a non-empty Owner means the owner died and no takeover
	// peer could inherit the session — transient if the fleet shares a
	// store or the owner restarts, not a permanent rejection.
	Owner string

	cause *service.Error
}

func (e *Error) Error() string {
	if e.Owner != "" {
		return fmt.Sprintf("edfd: %d: %s (owner %s)", e.StatusCode, e.Message, e.Owner)
	}
	return fmt.Sprintf("edfd: %d: %s", e.StatusCode, e.Message)
}

// Unwrap exposes the server's typed error to errors.As.
func (e *Error) Unwrap() error {
	if e.cause == nil {
		return nil
	}
	return e.cause
}

// OwnerUnavailable reports whether the error is the cluster proxy saying
// a session's owner replica is down with no takeover peer able to serve
// it — worth retrying once the fleet recovers, unlike a 4xx rejection.
func (e *Error) OwnerUnavailable() bool {
	return e.StatusCode == http.StatusServiceUnavailable && e.Owner != ""
}

// Route describes how the cluster proxy served a request, parsed from
// the X-Edf-* response headers edfproxy adds. Against a plain edfd (no
// proxy in the path) every field is zero — the typed client works
// identically against either, Route just stays empty.
type Route struct {
	// Replica is the edfd base URL that served the request (for a split
	// batch: the comma-joined replicas).
	Replica string
	// Attempts is 1 plus the number of failovers the proxy needed.
	Attempts int
	// TraceID is the request's trace, minted (or adopted) by the server
	// and echoed on the X-Edf-Trace response header. It resolves at
	// Client.Trace against the same server.
	TraceID string
	// Owner is the replica owning the session (X-Edf-Owner) on session
	// requests routed through the proxy.
	Owner string
	// TakenOverFrom names the dead replica this session was taken over
	// from (X-Edf-Takeover) when the serving replica rehydrated it from
	// the shared store; "" on a normal sticky route.
	TakenOverFrom string
}

// TakenOver reports whether the request was served by a takeover peer
// after the session's original owner died.
func (r Route) TakenOver() bool { return r.TakenOverFrom != "" }

// routeFrom extracts the proxy routing headers, if any.
func routeFrom(h http.Header) Route {
	rt := Route{
		Replica:       h.Get("X-Edf-Replica"),
		TraceID:       h.Get(obs.TraceHeader),
		Owner:         h.Get("X-Edf-Owner"),
		TakenOverFrom: h.Get("X-Edf-Takeover"),
	}
	rt.Attempts, _ = strconv.Atoi(h.Get("X-Edf-Attempts"))
	return rt
}

// do runs one JSON round trip. A nil in sends no body; a nil out discards
// the reply body.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	_, err := c.doRoute(ctx, method, path, in, out)
	return err
}

// doRoute is do plus the proxy routing metadata of the response.
func (c *Client) doRoute(ctx context.Context, method, path string, in, out any) (Route, error) {
	var body io.Reader
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return Route{}, fmt.Errorf("edfd: encoding request: %w", err)
		}
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return Route{}, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return Route{}, err
	}
	defer resp.Body.Close()
	rt := routeFrom(resp.Header)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var er service.ErrorResponse
		se := &service.Error{
			Code:      service.CodeForStatus(resp.StatusCode),
			Message:   resp.Status,
			Retryable: service.RetryableStatus(resp.StatusCode),
		}
		if json.NewDecoder(resp.Body).Decode(&er) == nil && (er.Error != "" || er.Message != "") {
			se = er.Err(resp.StatusCode)
		}
		if se.Owner == "" {
			se.Owner = rt.Owner
		}
		return rt, &Error{
			StatusCode: resp.StatusCode,
			Message:    se.Message,
			Code:       se.Code,
			Retryable:  se.Retryable,
			Owner:      se.Owner,
			cause:      se,
		}
	}
	if out == nil {
		return rt, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return rt, fmt.Errorf("edfd: decoding response: %w", err)
	}
	return rt, nil
}

// Analyze runs one analysis. The Route carries the cluster routing
// metadata — which replica served, after how many failovers — when the
// request went through edfproxy; against a plain edfd it is zero.
func (c *Client) Analyze(ctx context.Context, req service.AnalyzeRequest) (service.AnalyzeResponse, Route, error) {
	var out service.AnalyzeResponse
	rt, err := c.doRoute(ctx, http.MethodPost, "/v1/analyze", req, &out)
	return out, rt, err
}

// Batch fans sets x analyzers over the server's worker pool. A batch
// split across several replicas reports them comma-joined in
// Route.Replica.
func (c *Client) Batch(ctx context.Context, req service.BatchRequest) (service.BatchResponse, Route, error) {
	var out service.BatchResponse
	rt, err := c.doRoute(ctx, http.MethodPost, "/v1/batch", req, &out)
	return out, rt, err
}

// Partition places a partitioned workload onto its processors: the
// response is a feasible placement with per-processor verdicts, or a
// counterexample naming the task no heuristic could place.
func (c *Client) Partition(ctx context.Context, req service.PartitionRequest) (service.PartitionResponse, Route, error) {
	var out service.PartitionResponse
	rt, err := c.doRoute(ctx, http.MethodPost, "/v1/partition", req, &out)
	return out, rt, err
}

// Analyzers lists the server's registry.
func (c *Client) Analyzers(ctx context.Context) ([]service.AnalyzerJSON, error) {
	var out []service.AnalyzerJSON
	err := c.do(ctx, http.MethodGet, "/v1/analyzers", nil, &out)
	return out, err
}

// Schema fetches the server's wire-schema declaration: supported
// workload models, analyzers and partition heuristics.
func (c *Client) Schema(ctx context.Context) (service.SchemaResponse, error) {
	var out service.SchemaResponse
	err := c.do(ctx, http.MethodGet, "/v1/schema", nil, &out)
	return out, err
}

// Healthz checks liveness.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Metrics fetches the text metrics page verbatim.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", &Error{StatusCode: resp.StatusCode, Message: resp.Status}
	}
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// Session is a handle on one server-side admission session.
type Session struct {
	c *Client
	// ID is the server-assigned session id.
	ID string
}

// OpenSession starts an admission session.
func (c *Client) OpenSession(ctx context.Context, req service.SessionRequest) (*Session, service.SessionResponse, error) {
	var out service.SessionResponse
	if err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &out); err != nil {
		return nil, out, err
	}
	return &Session{c: c, ID: out.ID}, out, nil
}

// Session reattaches to an existing session by id — after a process
// restart, or to a session opened by another client. The server resolves
// the id (rehydrating from the durable store if it has one); the first
// call reports unknown ids as a 404 Error.
func (c *Client) Session(id string) *Session {
	return &Session{c: c, ID: id}
}

func (s *Session) path(suffix string) string { return "/v1/sessions/" + s.ID + suffix }

// State fetches the session's current counts and utilization. The
// Route includes Route.Owner and, after an owner death,
// Route.TakenOverFrom.
func (s *Session) State(ctx context.Context) (service.SessionResponse, Route, error) {
	var out service.SessionResponse
	rt, err := s.c.doRoute(ctx, http.MethodGet, s.path(""), nil, &out)
	return out, rt, err
}

// Propose stages one task if the grown set stays feasible.
func (s *Session) Propose(ctx context.Context, req service.ProposeRequest) (service.ProposeResponse, error) {
	out, _, err := s.ProposeRouted(ctx, req)
	return out, err
}

// ProposeRouted is Propose plus the cluster routing metadata, so a
// caller can observe which replica decided and whether the session was
// just taken over from a dead owner.
func (s *Session) ProposeRouted(ctx context.Context, req service.ProposeRequest) (service.ProposeResponse, Route, error) {
	var out service.ProposeResponse
	rt, err := s.c.doRoute(ctx, http.MethodPost, s.path("/propose"), req, &out)
	return out, rt, err
}

// ProposeBatch stages several tasks in one round trip, returning one
// verdict per task in request order.
func (s *Session) ProposeBatch(ctx context.Context, req service.ProposeBatchRequest) (service.ProposeBatchResponse, error) {
	var out service.ProposeBatchResponse
	err := s.c.do(ctx, http.MethodPost, s.path("/propose-batch"), req, &out)
	return out, err
}

// Commit makes every pending task permanent.
func (s *Session) Commit(ctx context.Context) (service.CommitResponse, error) {
	var out service.CommitResponse
	err := s.c.do(ctx, http.MethodPost, s.path("/commit"), struct{}{}, &out)
	return out, err
}

// Rollback discards every pending task.
func (s *Session) Rollback(ctx context.Context) (service.CommitResponse, error) {
	var out service.CommitResponse
	err := s.c.do(ctx, http.MethodPost, s.path("/rollback"), struct{}{}, &out)
	return out, err
}

// Close deletes the session server-side.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, s.path(""), nil, nil)
}
