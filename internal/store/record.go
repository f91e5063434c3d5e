package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
)

// Record types, one per session decision. Open and Admit carry opaque
// payloads owned by the service layer (the session config and the
// proposed task); the store never interprets them.
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

// SessionSnapshot is the durable image of one session inside a Snapshot:
// its config reflecting all committed decisions, any pending
// (uncommitted) tasks, and the sequence watermark of the last record the
// image covers.
type SessionSnapshot struct {
	ID string `json:"id"`
	// Seq is the session's watermark: log records for this session with
	// Seq <= this value are already folded into Config/Pending and are
	// skipped during replay.
	Seq     uint64            `json:"seq"`
	Config  json.RawMessage   `json:"config"`
	Pending []json.RawMessage `json:"pending,omitempty"`
}

// Snapshot is a compacting image of live session state.
type Snapshot struct {
	// Seq is a store watermark taken BEFORE any session was captured
	// (Store.LastSeq): a record stamped while the capture ran always
	// carries a higher seq, so compacting records at or below Seq (per
	// the session marks) can never drop one the snapshot does not cover
	// — not even a session whose first record landed mid-capture.
	Seq      uint64            `json:"seq"`
	Sessions []SessionSnapshot `json:"sessions"`
}

// SessionState is the replayed state of one session after folding a
// snapshot and the log: the config as of the last committed decision,
// tasks admitted but not yet committed, and the last sequence number
// seen for the session.
type SessionState struct {
	ID      string
	Seq     uint64
	Config  json.RawMessage
	Pending []json.RawMessage
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
func (r *replayer) foldSnapshot(img SessionSnapshot) {
	r.note(img.Seq)
	if closedAt, ok := r.closed[img.ID]; ok && closedAt >= img.Seq {
		return
	}
	if cur, ok := r.sessions[img.ID]; ok && cur.Seq >= img.Seq {
		return
	}
	st := &SessionState{ID: img.ID, Seq: img.Seq, Config: img.Config}
	if len(img.Pending) > 0 {
		st.Pending = append([]json.RawMessage(nil), img.Pending...)
	}
	r.sessions[img.ID] = st
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
		cfg, err := commitConfig(st.Config, st.Pending)
		if err != nil {
			return fmt.Errorf("store: commit replay for session %s: %w", rec.Session, err)
		}
		st.Config = cfg
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

// commitConfig folds pending tasks into a session config by appending
// them to its "tasks" array. The config is otherwise opaque; only the
// tasks key is touched, and the service layer's config schema keeps
// tasks as a JSON array.
func commitConfig(cfg json.RawMessage, pending []json.RawMessage) (json.RawMessage, error) {
	if len(pending) == 0 {
		return cfg, nil
	}
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(cfg, &obj); err != nil {
		return nil, fmt.Errorf("config not an object: %w", err)
	}
	if obj == nil { // a null config decodes without error
		return nil, errors.New("config not an object: null")
	}
	var tasks []json.RawMessage
	if raw, ok := obj["tasks"]; ok && len(raw) > 0 && string(raw) != "null" {
		if err := json.Unmarshal(raw, &tasks); err != nil {
			return nil, fmt.Errorf("config tasks not an array: %w", err)
		}
	}
	tasks = append(tasks, pending...)
	rawTasks, err := json.Marshal(tasks)
	if err != nil {
		return nil, err
	}
	obj["tasks"] = rawTasks
	return json.Marshal(obj)
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
