package service

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync"
	"time"
)

// errSessionLimit is returned when the store is full.
var errSessionLimit = fmt.Errorf("service: session limit reached")

// errSessionUnknown is returned for missing session ids.
var errSessionUnknown = fmt.Errorf("service: unknown session")

// sessionEntry pairs a controller with its last-touched time for idle-TTL
// sweeping and, when the server has a durable store, the session's
// journaling state.
type sessionEntry struct {
	adm      *Admission
	lastUsed time.Time
	// inflight counts requests currently using the session. The sweeper
	// never expires a busy session: a propose that slips past its TTL
	// mid-request must still find its controller alive.
	inflight int

	// Journaling state, used only when the server has a store. jmu
	// serializes (decision, log record, watermark) triples so the log
	// preserves per-session decision order and a snapshot capture sees a
	// consistent (state, lastSeq) pair. analyzer/options reproduce the
	// session's config in open records and snapshots; lastSeq is the
	// store sequence of the session's latest record.
	jmu      sync.Mutex
	analyzer string
	options  OptionsJSON
	lastSeq  uint64
}

// sessionStore is a bounded, concurrency-safe id -> admission controller
// map. Sessions live until explicitly closed or — when the server runs a
// sweeper — idle past the TTL; the bound keeps a client that leaks
// sessions from exhausting server memory.
type sessionStore struct {
	mu       sync.Mutex
	sessions map[string]*sessionEntry
	limit    int
	created  uint64
	expired  uint64
	// onExpired, when non-nil, receives the ids the sweeper removed, after
	// the store lock is released — the server publishes expire events from
	// it. Set before the sweeper starts; not guarded.
	onExpired func(ids []string)
}

func newSessionStore(limit int) *sessionStore {
	return &sessionStore{sessions: make(map[string]*sessionEntry), limit: limit}
}

// open registers a controller under a fresh random id. analyzer and
// options reproduce the session's config for the journal; they are unset
// (and unused) when the server has no store.
func (s *sessionStore) open(adm *Admission, analyzer string, options OptionsJSON) (string, *sessionEntry, error) {
	id := newSessionID()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.sessions) >= s.limit {
		return "", nil, errSessionLimit
	}
	e := &sessionEntry{adm: adm, lastUsed: time.Now(), analyzer: analyzer, options: options}
	s.sessions[id] = e
	s.created++
	return id, e, nil
}

// acquire looks a session up, refreshes its idle clock and marks it
// in-flight so the TTL sweeper cannot expire it mid-request. The caller
// must invoke the returned release exactly once when done with the
// controller; release refreshes the clock again so the idle TTL measures
// time since the request finished, not since it started.
func (s *sessionStore) acquire(id string) (*sessionEntry, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.sessions[id]
	if !ok {
		return nil, nil, errSessionUnknown
	}
	e.inflight++
	e.lastUsed = time.Now()
	release := func() {
		s.mu.Lock()
		e.inflight--
		e.lastUsed = time.Now()
		s.mu.Unlock()
	}
	return e, release, nil
}

// restore registers a recovered controller under its original id (the
// store replay and takeover-rehydration path). When the id is already
// live — two requests racing to rehydrate the same session — the
// existing entry wins and restored is false.
func (s *sessionStore) restore(id string, e *sessionEntry) (*sessionEntry, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.sessions[id]; ok {
		return cur, false, nil
	}
	if len(s.sessions) >= s.limit {
		return nil, false, errSessionLimit
	}
	e.lastUsed = time.Now()
	s.sessions[id] = e
	s.created++
	return e, true, nil
}

// entries returns the live (id, entry) pairs for a snapshot capture.
func (s *sessionStore) entries() map[string]*sessionEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*sessionEntry, len(s.sessions))
	for id, e := range s.sessions {
		out[id] = e
	}
	return out
}

// close removes a session; ok is false when it did not exist.
func (s *sessionStore) close(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	return ok
}

// counts returns active, lifetime-created and swept session counts.
func (s *sessionStore) counts() (active int, created, expired uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions), s.created, s.expired
}

// sweep closes every idle session last touched before now-ttl and returns
// how many it removed. Pending (uncommitted) proposals die with the
// session — the same outcome as an explicit close. Sessions with an
// in-flight request are never swept, however stale their clock looks: a
// long-running propose is activity, not idleness.
func (s *sessionStore) sweep(ttl time.Duration, now time.Time) int {
	cutoff := now.Add(-ttl)
	s.mu.Lock()
	var swept []string
	for id, e := range s.sessions {
		if e.inflight == 0 && e.lastUsed.Before(cutoff) {
			delete(s.sessions, id)
			swept = append(swept, id)
		}
	}
	s.expired += uint64(len(swept))
	s.mu.Unlock()
	if s.onExpired != nil && len(swept) > 0 {
		s.onExpired(swept)
	}
	return len(swept)
}

// sweeper runs sweep every interval until stop closes.
func (s *sessionStore) sweeper(ttl, interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case now := <-t.C:
			s.sweep(ttl, now)
		case <-stop:
			return
		}
	}
}

// newSessionID returns 16 random bytes as hex. crypto/rand cannot fail on
// the supported platforms; a failure would mean a broken kernel RNG and
// panicking beats handing out guessable session ids.
func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err)
	}
	var h [32]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}
