package store

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
)

// Record types, one per session decision. Open and Admit carry opaque
// payloads owned by the service layer (the session config and the
// proposed task); the store never interprets them: replay only moves
// admit payloads from Pending to Committed.
const (
	TypeOpen     = "open"
	TypeAdmit    = "admit"
	TypeCommit   = "commit"
	TypeRollback = "rollback"
	TypeClose    = "close"
	TypeExpire   = "expire"
)

// Record is one entry in the write-ahead decision log.
type Record struct {
	// Seq is the store-assigned hybrid-clock sequence number. Callers
	// leave it zero; the store fills it in on Append/Submit.
	Seq uint64 `json:"seq"`
	// Time is the wall-clock time of the decision in unix nanoseconds.
	Time int64 `json:"time,omitempty"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// Session is the session id the record belongs to.
	Session string `json:"session"`
	// Config is the opaque session configuration (the seed workload and
	// analyzer options), present on open records only.
	Config json.RawMessage `json:"config,omitempty"`
	// Task is the opaque proposed task, present on admit records only.
	Task json.RawMessage `json:"task,omitempty"`
}

// Snapshot is a compacting image of live session state.
type Snapshot struct {
	// Seq is a store watermark taken BEFORE any session was captured
	// (Store.LastSeq): a record stamped while the capture ran always
	// carries a higher seq, so compacting records at or below Seq (per
	// the session marks) can never drop one the snapshot does not cover
	// — not even a session whose first record landed mid-capture.
	Seq      uint64         `json:"seq"`
	Sessions []SessionState `json:"sessions"`
}

// SessionState is the durable state of one session: what Load replays
// from snapshots and the log, and the image a Snapshot carries. The
// store keeps the service's payloads opaque: the session is the open
// config followed by the Committed tasks, in order, and the Pending
// tasks are admitted but not yet committed.
type SessionState struct {
	ID string `json:"id"`
	// Seq is the session's watermark: log records for this session with
	// Seq <= this value are already folded into the state and are
	// skipped during replay.
	Seq uint64 `json:"seq"`
	// Config is the config the session was opened with, or the one a
	// snapshot captured.
	Config json.RawMessage `json:"config"`
	// Committed holds the admit payloads that commits after Config made
	// permanent, in admission order.
	Committed []json.RawMessage `json:"committed,omitempty"`
	// Pending holds the admit payloads no commit covers yet.
	Pending []json.RawMessage `json:"pending,omitempty"`
}

// replayer folds snapshot images and log records into SessionState
// values, dropping sessions once a close/expire record is seen.
type replayer struct {
	sessions map[string]*SessionState
	// closed remembers sessions removed by close/expire so a stale
	// snapshot image read after the record (shared-dir loads read
	// segments in seq order, but snapshots are folded first) cannot
	// resurrect them.
	closed map[string]uint64
	maxSeq uint64
}

func newReplayer() *replayer {
	return &replayer{sessions: make(map[string]*SessionState), closed: make(map[string]uint64)}
}

func (r *replayer) note(seq uint64) {
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
}

// foldSnapshot applies one session image. Later images (higher
// watermarks) win over earlier ones; a close/expire at or after the
// watermark suppresses the image entirely.
func (r *replayer) foldSnapshot(img SessionState) {
	r.note(img.Seq)
	if closedAt, ok := r.closed[img.ID]; ok && closedAt >= img.Seq {
		return
	}
	if cur, ok := r.sessions[img.ID]; ok && cur.Seq >= img.Seq {
		return
	}
	img.Committed = slices.Clone(img.Committed)
	img.Pending = slices.Clone(img.Pending)
	r.sessions[img.ID] = &img
}

// foldRecord applies one log record. Records at or below a session's
// watermark are already covered and skipped.
func (r *replayer) foldRecord(rec Record) error {
	r.note(rec.Seq)
	if closedAt, ok := r.closed[rec.Session]; ok && closedAt >= rec.Seq {
		return nil
	}
	st := r.sessions[rec.Session]
	if st != nil && rec.Seq <= st.Seq {
		return nil
	}
	switch rec.Type {
	case TypeOpen:
		r.sessions[rec.Session] = &SessionState{ID: rec.Session, Seq: rec.Seq, Config: rec.Config}
	case TypeAdmit:
		if st == nil {
			return nil // session already gone; stray suffix record
		}
		st.Pending = append(st.Pending, rec.Task)
		st.Seq = rec.Seq
	case TypeCommit:
		if st == nil {
			return nil
		}
		st.Committed = append(st.Committed, st.Pending...)
		st.Pending = nil
		st.Seq = rec.Seq
	case TypeRollback:
		if st == nil {
			return nil
		}
		st.Pending = nil
		st.Seq = rec.Seq
	case TypeClose, TypeExpire:
		delete(r.sessions, rec.Session)
		r.closed[rec.Session] = rec.Seq
	default:
		return fmt.Errorf("store: unknown record type %q", rec.Type)
	}
	return nil
}

// result returns the replayed sessions and the highest sequence seen.
func (r *replayer) result() (map[string]*SessionState, uint64) {
	return r.sessions, r.maxSeq
}

// sortRecords orders records by sequence number, preserving input order
// for equal seqs (which only happens across nodes with colliding hybrid
// clocks; per-node seqs are strictly increasing).
func sortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
}
