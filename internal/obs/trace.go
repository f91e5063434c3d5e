package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// TraceHeader carries the trace ID between edfproxy, edfd and clients, on
// both requests (propagation) and responses (so a caller that did not
// send an ID learns the minted one).
const TraceHeader = "X-Edf-Trace"

// NewTraceID returns 8 random bytes as 16 hex characters. crypto/rand
// cannot fail on the supported platforms; a failure would mean a broken
// kernel RNG and panicking beats handing out colliding trace ids.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	var h [16]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

// Admission decision paths, carried on traces and feed events.
const (
	// PathGate is the O(1) utilization-gate rejection: no analyzer ran.
	PathGate = "gate"
	// PathFast is the incremental certificate accept: O(delta), no cascade.
	PathFast = "fast"
	// PathCascade is a full analyzer escalation.
	PathCascade = "cascade"
)

// Span is one timed step of a request. Offsets are relative to the owning
// trace's start, so a span list is self-contained and cheap to record.
type Span struct {
	// Name identifies the step ("cache", "stage:liu-layland", "forward").
	Name string `json:"name"`
	// StartNS is the offset from the trace start.
	StartNS int64 `json:"start_ns"`
	// DurNS is the span's duration.
	DurNS int64 `json:"dur_ns"`
	// Replica names the replica a span ran on (stamped by the proxy when
	// it merges replica spans into a fleet trace; empty on a single edfd).
	Replica string `json:"replica,omitempty"`
	// Detail carries a short human-readable outcome ("hit", "feasible
	// iters=12", "status 503").
	Detail string `json:"detail,omitempty"`
}

// Trace is one request's span record. It is built by a single goroutine
// (the request handler) and becomes immutable once handed to a Recorder.
type Trace struct {
	ID string `json:"id"`
	// Op is the logical operation ("analyze", "propose", "commit", ...).
	Op string `json:"op"`
	// Session is the admission session the request touched, if any.
	Session string `json:"session,omitempty"`
	// Path is the admission decision path: "gate" (utilization rejection),
	// "fast" (incremental certificate accept) or "cascade" (full
	// escalation). Empty for non-admission requests.
	Path string `json:"path,omitempty"`
	// StartUnixNS anchors the span offsets to wall-clock time.
	StartUnixNS int64  `json:"start_unix_ns"`
	Spans       []Span `json:"spans"`

	start time.Time
}

// StartTrace begins a trace record for one request.
func StartTrace(id, op string) *Trace {
	now := time.Now()
	return &Trace{ID: id, Op: op, StartUnixNS: now.UnixNano(), start: now}
}

// Start returns the trace's start instant, for callers computing their
// own span offsets.
func (t *Trace) Start() time.Time { return t.start }

// EndSpan records a span that began at start and ends now.
func (t *Trace) EndSpan(name string, start time.Time, detail string) {
	t.Spans = append(t.Spans, Span{
		Name:    name,
		StartNS: start.Sub(t.start).Nanoseconds(),
		DurNS:   time.Since(start).Nanoseconds(),
		Detail:  detail,
	})
}

// AddSpan appends a prebuilt span.
func (t *Trace) AddSpan(s Span) { t.Spans = append(t.Spans, s) }

// traceKey is the context key for the active trace.
type traceKey struct{}

// WithTrace attaches an active trace to a request context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, t)
}

// FromContext returns the active trace, or nil outside a traced request.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// TraceSummary is one line of the recent-traces listing.
type TraceSummary struct {
	ID          string `json:"id"`
	Op          string `json:"op"`
	Session     string `json:"session,omitempty"`
	Path        string `json:"path,omitempty"`
	StartUnixNS int64  `json:"start_unix_ns"`
	Spans       int    `json:"spans"`
	DurNS       int64  `json:"dur_ns"`
}

// summary condenses a trace for the listing; duration is the end of the
// last-ending span.
func summary(t *Trace) TraceSummary {
	s := TraceSummary{
		ID: t.ID, Op: t.Op, Session: t.Session, Path: t.Path,
		StartUnixNS: t.StartUnixNS, Spans: len(t.Spans),
	}
	for _, sp := range t.Spans {
		if end := sp.StartNS + sp.DurNS; end > s.DurNS {
			s.DurNS = end
		}
	}
	return s
}

// DefaultTraceCapacity bounds a server's trace ring when the owner does
// not choose one.
const DefaultTraceCapacity = 1024

// Recorder keeps the most recent traces in a fixed ring with an ID index.
// Record takes ownership of the trace: the producer must not mutate it
// afterwards, which lets Get hand the stored pointer to readers without
// copying. Writes are O(1); the mutex is held only for pointer swaps.
type Recorder struct {
	mu   sync.Mutex
	ring []*Trace
	next int
	byID map[string]*Trace
}

// NewRecorder builds a recorder keeping up to capacity traces (<= 0
// selects DefaultTraceCapacity).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Recorder{
		ring: make([]*Trace, capacity),
		byID: make(map[string]*Trace, capacity),
	}
}

// Record stores a finished trace, evicting the oldest when full. A second
// record under the same ID replaces the first in the index (the ring keeps
// both until they age out).
func (r *Recorder) Record(t *Trace) {
	if t == nil || t.ID == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.ring[r.next]; old != nil && r.byID[old.ID] == old {
		delete(r.byID, old.ID)
	}
	r.ring[r.next] = t
	r.byID[t.ID] = t
	r.next = (r.next + 1) % len(r.ring)
}

// Get returns the trace recorded under id. The returned trace is shared
// and must be treated as read-only.
func (r *Recorder) Get(id string) (*Trace, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.byID[id]
	return t, ok
}

// Recent lists up to n trace summaries, newest first (n <= 0 means all
// retained).
func (r *Recorder) Recent(n int) []TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > len(r.ring) {
		n = len(r.ring)
	}
	out := make([]TraceSummary, 0, n)
	for i := 1; i <= len(r.ring) && len(out) < n; i++ {
		t := r.ring[(r.next-i+len(r.ring))%len(r.ring)]
		if t == nil {
			break
		}
		out = append(out, summary(t))
	}
	return out
}

// MaxStages bounds a StageLog; a cascade runs at most four stages today,
// the spare slots absorb future stages without an encoding change.
const MaxStages = 8

// StageRecord is one analyzer stage of a cascade escalation.
type StageRecord struct {
	// Name is the stage analyzer's registry name.
	Name string
	// Verdict is the stage's verdict string.
	Verdict string
	// Iterations is the stage's checked test intervals.
	Iterations int64
	// DurNS is the stage's wall time.
	DurNS int64
	// Promotions counts the stage's exits from the bounded-denominator
	// fast path: values promoted to big rationals plus analyses that fell
	// back wholesale because no chunk plan fit the workload. Zero on the
	// overwhelming majority of workloads; a persistent non-zero stream
	// means the workload's periods exceed the chunk cap.
	Promotions uint64
}

// StageLog captures per-stage spans of one analysis into preallocated
// slots: recording writes array entries in place, so the analyzer and
// admission fast paths stay allocation-free with tracing on. A StageLog
// serves one analysis at a time; owners reusing one across analyses call
// Reset first, and concurrent analyses need separate logs.
type StageLog struct {
	n      int
	stages [MaxStages]StageRecord
}

// Reset empties the log without releasing memory.
func (l *StageLog) Reset() { l.n = 0 }

// Record appends one stage, silently dropping past MaxStages.
func (l *StageLog) Record(name, verdict string, iterations, durNS int64, promotions uint64) {
	if l.n >= MaxStages {
		return
	}
	l.stages[l.n] = StageRecord{Name: name, Verdict: verdict, Iterations: iterations, DurNS: durNS, Promotions: promotions}
	l.n++
}

// Promotions sums the fast-path exits over the recorded stages.
func (l *StageLog) Promotions() uint64 {
	var total uint64
	for i := range l.n {
		total += l.stages[i].Promotions
	}
	return total
}

// Len returns the number of recorded stages.
func (l *StageLog) Len() int { return l.n }

// Stage returns the i-th recorded stage.
func (l *StageLog) Stage(i int) StageRecord { return l.stages[i] }

// SpansInto appends the recorded stages as "stage:<name>" spans laid out
// back-to-back ending at end, so a trace shows where the escalation's
// time went even though stages only track durations.
func (l *StageLog) SpansInto(t *Trace, end time.Time) {
	if l.n == 0 {
		return
	}
	endNS := end.Sub(t.start).Nanoseconds()
	var total int64
	for i := range l.n {
		total += l.stages[i].DurNS
	}
	start := endNS - total
	for i := range l.n {
		st := l.stages[i]
		detail := st.Verdict + " iters=" + strconv.FormatInt(st.Iterations, 10)
		if st.Promotions > 0 {
			detail += " promotions=" + strconv.FormatUint(st.Promotions, 10)
		}
		t.AddSpan(Span{
			Name:    "stage:" + st.Name,
			StartNS: start,
			DurNS:   st.DurNS,
			Detail:  detail,
		})
		start += st.DurNS
	}
}
