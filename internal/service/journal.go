package service

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/workload"
)

// This file threads the durable store through the session lifecycle:
// every open/admit/commit/rollback/close/expire decision writes a log
// record, a restarted server replays the log back into live sessions,
// and a session-miss rehydrates from the shared store (the cluster
// takeover path).
//
// Durability points use the store's synchronous Append — the client
// only sees a 2xx after the record is on disk — while high-rate admit
// records and the loss-tolerant rollback/expire records ride the
// asynchronous Submit: a crash loses at most an ordered suffix of
// unsynced records, and losing an admit suffix is indistinguishable
// from crashing before those proposals arrived.
//
// Per-session record order is preserved by the entry's jmu, which
// spans (decision, log record, watermark) so the log can never show a
// commit before the admits it covers, and a snapshot capture sees a
// consistent (state, lastSeq) pair. Every journaled decision takes jmu
// whether or not a store is configured; without one only the store
// calls are skipped.

// journalOpen writes the session's open record — synchronously, so the
// session id handed to the client is already durable.
func (s *Server) journalOpen(id string, e *sessionEntry, req SessionRequest) error {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	if s.store == nil {
		return nil
	}
	cfg, err := req.MarshalJSON()
	if err != nil {
		return err
	}
	seq, err := s.store.Append(store.Record{Type: store.TypeOpen, Session: id, Config: cfg})
	if err != nil {
		return err
	}
	e.lastSeq = seq
	return nil
}

// proposeJournaled decides one task and journals the admit record (in
// decision order) when it was staged.
func (s *Server) proposeJournaled(e *sessionEntry, id string, t workload.Task) (ProposeOutcome, error) {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	out, err := e.adm.ProposeTask(t)
	if err == nil && out.Admitted && s.store != nil {
		s.submitLocked(e, admitRecord(id, t))
	}
	return out, err
}

// proposeBatchJournaled is the bulk counterpart: one Submit carries the
// batch's admitted records, in decision order.
func (s *Server) proposeBatchJournaled(e *sessionEntry, id string, tasks []workload.Task) ([]ProposeOutcome, error) {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	outs, err := e.adm.ProposeBatch(tasks)
	if err != nil || s.store == nil {
		return outs, err
	}
	var recs []store.Record
	for i, out := range outs {
		if out.Admitted {
			recs = append(recs, admitRecord(id, tasks[i]))
		}
	}
	if len(recs) > 0 {
		s.submitLocked(e, recs...)
	}
	return outs, nil
}

// finishJournaled applies a commit or rollback and journals it. A
// commit is a durability point (Append blocks until fsynced); a
// rollback only narrows state, so losing its record merely replays
// pending tasks a restart would drop anyway.
func (s *Server) finishJournaled(e *sessionEntry, id, event string, move func(*Admission) FinishOutcome) FinishOutcome {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	out := move(e.adm)
	if s.store == nil {
		return out
	}
	rec := store.Record{Session: id}
	var seq uint64
	var err error
	if event == obs.EventCommit {
		rec.Type = store.TypeCommit
		seq, err = s.store.Append(rec)
	} else {
		rec.Type = store.TypeRollback
		seq, err = s.store.Submit(rec)
	}
	if err != nil {
		// The in-memory move already happened; the divergence is logged
		// and counted rather than unwound (the client's state matches
		// memory, and the next snapshot re-converges the store).
		s.m.journalErrors.Add(1)
		s.log.Error("journal write failed", "session", id, "type", rec.Type, "err", err)
		return out
	}
	e.lastSeq = seq
	return out
}

// journalClose writes a session's close record so replay cannot
// resurrect it.
func (s *Server) journalClose(id string) {
	if s.store == nil {
		return
	}
	if _, err := s.store.Append(store.Record{Type: store.TypeClose, Session: id}); err != nil {
		s.m.journalErrors.Add(1)
		s.log.Error("journal write failed", "session", id, "type", store.TypeClose, "err", err)
	}
}

// journalExpired writes expire records for TTL-swept sessions — without
// them a restart would resurrect sessions the sweeper already removed.
func (s *Server) journalExpired(ids []string) {
	if s.store == nil {
		return
	}
	recs := make([]store.Record, len(ids))
	for i, id := range ids {
		recs[i] = store.Record{Type: store.TypeExpire, Session: id}
	}
	if _, err := s.store.Submit(recs...); err != nil {
		s.m.journalErrors.Add(1)
		s.log.Error("journal write failed", "type", store.TypeExpire, "err", err)
	}
}

// submitLocked submits records and advances the session watermark; the
// caller holds e.jmu.
func (s *Server) submitLocked(e *sessionEntry, recs ...store.Record) {
	seq, err := s.store.Submit(recs...)
	if err != nil {
		s.m.journalErrors.Add(1)
		s.log.Error("journal write failed", "session", recs[0].Session, "type", recs[0].Type, "err", err)
		return
	}
	e.lastSeq = seq
}

func admitRecord(id string, t workload.Task) store.Record {
	raw, _ := t.MarshalJSON() // a Task always encodes
	return store.Record{Type: store.TypeAdmit, Session: id, Task: raw}
}

// rebuildEntry turns a replayed session state back into a live entry:
// the config's seed followed by the committed tasks, in order, becomes
// the new controller's seed. TrustedSeed skips re-proving that set (it
// was verified feasible when admitted); everything else about the
// construction is identical, so subsequent verdicts are bit-identical to
// the uninterrupted run. Replayed pending (uncommitted) tasks are
// dropped — the same implicit rollback an explicit restart-and-reopen
// would do. A config that is not a JSON object, or a committed payload
// that is not a task of the session's model, fails only this session.
func (s *Server) rebuildEntry(st *store.SessionState) (*sessionEntry, error) {
	if cfg := bytes.TrimLeft(st.Config, " \t\r\n"); len(cfg) == 0 || cfg[0] != '{' {
		return nil, errors.New("session config: not a JSON object")
	}
	var req SessionRequest
	if err := req.UnmarshalJSON(st.Config); err != nil {
		return nil, fmt.Errorf("session config: %w", err)
	}
	opt, err := req.Options.Core()
	if err != nil {
		return nil, err
	}
	seed := req.Workload
	for i, raw := range st.Committed {
		var t workload.Task
		if err := t.UnmarshalJSON(raw); err != nil {
			return nil, fmt.Errorf("committed task %d: %w", i, err)
		}
		if t.Kind() != seed.Kind() {
			return nil, fmt.Errorf("committed task %d: a %s task in a %s session", i, t.Kind(), seed.Kind())
		}
		seed.Append(t)
	}
	adm, err := NewAdmission(AdmissionConfig{
		Analyzer:    req.Analyzer,
		Options:     opt,
		Seed:        seed,
		TrustedSeed: true,
	})
	if err != nil {
		return nil, err
	}
	s.m.promotions.Add(adm.Stats().Promotions)
	return &sessionEntry{adm: adm, analyzer: req.Analyzer, options: req.Options, lastSeq: st.Seq}, nil
}

// recoverSessions replays the store into live sessions at startup.
// Damaged or unparsable sessions are logged and skipped — recovery
// restores what it can rather than refusing to boot.
func (s *Server) recoverSessions() {
	states, _, err := s.store.Load()
	if err != nil {
		s.log.Error("store replay failed, starting empty", "err", err)
		return
	}
	ids := make([]string, 0, len(states))
	for id := range states {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st := states[id]
		e, err := s.rebuildEntry(st)
		if err != nil {
			s.log.Error("session not recovered", "session", id, "err", err)
			continue
		}
		if _, restored, err := s.sessions.restore(id, e); err != nil || !restored {
			s.log.Error("session not recovered", "session", id, "err", err)
			continue
		}
		if len(st.Pending) > 0 {
			s.journalRollback(e, id)
		}
		s.m.resumed.Add(1)
		s.publishResume(id, e)
		committed, _, _ := e.adm.Counts()
		s.log.Info("session resumed from store", "session", id,
			"committed", committed, "dropped_pending", len(st.Pending))
	}
}

// Negative rehydrate-cache tuning: a store lookup that found nothing is
// remembered this long, and at most this many ids are tracked. Every
// /v1/sessions/{id} miss otherwise costs a full directory replay, which
// would make bogus ids an easy resource-exhaustion vector.
const (
	rehydrateMissTTL = 2 * time.Second
	maxTrackedMisses = 4096
)

// recentMiss reports whether id was recently looked up in the store and
// found absent; such ids 404 again without another full replay.
func (s *Server) recentMiss(id string) bool {
	s.missMu.Lock()
	defer s.missMu.Unlock()
	t, ok := s.misses[id]
	if !ok {
		return false
	}
	if time.Since(t) > rehydrateMissTTL {
		delete(s.misses, id)
		return false
	}
	return true
}

// noteMiss records a store lookup that found nothing, bounding the map:
// expired entries go first, arbitrary ones if the map is still full.
func (s *Server) noteMiss(id string) {
	s.missMu.Lock()
	defer s.missMu.Unlock()
	if s.misses == nil {
		s.misses = make(map[string]time.Time)
	}
	if len(s.misses) >= maxTrackedMisses {
		for k, t := range s.misses {
			if time.Since(t) > rehydrateMissTTL {
				delete(s.misses, k)
			}
		}
		for k := range s.misses {
			if len(s.misses) < maxTrackedMisses {
				break
			}
			delete(s.misses, k)
		}
	}
	s.misses[id] = time.Now()
}

// rehydrate loads one session this replica has never seen from the
// shared store — the takeover path: the proxy reassigned a dead owner's
// session here, and the store directory both replicas share has its
// decision history. Returns false when the session is unknown, closed,
// or cannot be rebuilt. Absent and unrebuildable ids are remembered
// briefly so repeated misses skip the full directory replay.
func (s *Server) rehydrate(id string) bool {
	if s.store == nil {
		return false
	}
	if s.recentMiss(id) {
		return false
	}
	st, err := s.store.LoadSession(id)
	if err != nil {
		s.log.Error("store lookup failed", "session", id, "err", err)
		return false
	}
	if st == nil {
		s.noteMiss(id)
		return false
	}
	e, err := s.rebuildEntry(st)
	if err != nil {
		s.noteMiss(id)
		s.log.Error("session not rehydrated", "session", id, "err", err)
		return false
	}
	_, restored, err := s.sessions.restore(id, e)
	if err != nil {
		s.log.Error("session not rehydrated", "session", id, "err", err)
		return false
	}
	if restored {
		// Journal the rollback even when the replay saw no pending task:
		// an owner the proxy marked unhealthy may still be alive with
		// admits it stamped before this replay but had not yet written.
		// This record's later seq clears them whenever they land, so
		// the next commit here cannot fold them in.
		s.journalRollback(e, id)
		s.m.rehydrated.Add(1)
		s.publishResume(id, e)
		committed, _, _ := e.adm.Counts()
		s.log.Info("session rehydrated from store", "session", id,
			"committed", committed, "dropped_pending", len(st.Pending))
	}
	return true
}

// journalRollback records the implicit rollback of the pending tasks a
// recovery drops, so a later replay (or another node's) agrees.
func (s *Server) journalRollback(e *sessionEntry, id string) {
	e.jmu.Lock()
	s.submitLocked(e, store.Record{Type: store.TypeRollback, Session: id})
	e.jmu.Unlock()
}

func (s *Server) publishResume(id string, e *sessionEntry) {
	_, _, util := e.adm.Counts()
	s.hub.Publish(obs.Event{Type: obs.EventResume, Session: id, Utilization: util})
}

// ensureSession resolves id to a live entry, rehydrating from the store
// on a miss.
func (s *Server) ensureSession(id string) (*sessionEntry, func(), error) {
	e, release, err := s.sessions.acquire(id)
	if err == nil {
		return e, release, nil
	}
	if !s.rehydrate(id) {
		return nil, nil, err
	}
	return s.sessions.acquire(id)
}

// captureSnapshot builds a compacting image of live sessions. snap.Seq
// is a store watermark taken BEFORE any session is read: a record
// stamped while the capture walks the map always carries a higher seq,
// so compacting up to snap.Seq can never drop a record the image does
// not cover. A session whose open record has not landed yet
// (lastSeq == 0) is skipped — stamping happens under the same jmu this
// capture takes, so its records are stamped strictly after the
// watermark and survive both compaction and replay on their own.
func (s *Server) captureSnapshot() (store.Snapshot, bool) {
	snap := store.Snapshot{Seq: s.store.LastSeq()}
	for id, e := range s.sessions.entries() {
		e.jmu.Lock()
		seq := e.lastSeq
		if seq == 0 {
			e.jmu.Unlock()
			continue
		}
		committed, pending, _ := e.adm.Snapshot()
		analyzer, options := e.analyzer, e.options
		e.jmu.Unlock()
		cfg, err := SessionRequest{Analyzer: analyzer, Options: options, Workload: committed}.MarshalJSON()
		if err != nil {
			s.log.Error("snapshot capture failed", "session", id, "err", err)
			continue
		}
		img := store.SessionState{ID: id, Seq: seq, Config: cfg}
		for _, t := range pendingTasks(pending) {
			raw, _ := t.MarshalJSON() // a Task always encodes
			img.Pending = append(img.Pending, raw)
		}
		snap.Sessions = append(snap.Sessions, img)
	}
	return snap, len(snap.Sessions) > 0
}

// pendingTasks wraps a pending workload's members back into wire tasks.
func pendingTasks(w workload.Workload) []workload.Task {
	var out []workload.Task
	if w.Kind() == workload.Events {
		for _, t := range w.Events {
			out = append(out, workload.EventTask(t))
		}
		return out
	}
	for _, t := range w.Tasks {
		out = append(out, workload.SporadicTask(t))
	}
	return out
}

// writeSnapshot captures and persists one snapshot.
func (s *Server) writeSnapshot() {
	snap, ok := s.captureSnapshot()
	if !ok {
		return
	}
	if err := s.store.WriteSnapshot(snap); err != nil {
		s.m.journalErrors.Add(1)
		s.log.Error("snapshot write failed", "err", err)
	}
}

// snapshotter writes compacting snapshots every interval and a final
// one at shutdown.
func (s *Server) snapshotter(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.writeSnapshot()
		case <-s.stop:
			s.writeSnapshot()
			return
		}
	}
}
