package store

// Store is the durable-state interface the service journals admission
// sessions through; DiskStore implements it. Implementations must be
// safe for concurrent use.
type Store interface {
	// Append writes records to the log, after every record queued
	// before them, and returns once all of them are durable (fsynced
	// unless the store was opened with NoSync). The store assigns Seq
	// to each record in order; the returned seq is the last one
	// assigned.
	Append(recs ...Record) (uint64, error)
	// Submit enqueues records in order and returns without waiting for
	// durability. The service submits admit, rollback and expire
	// records, whose loss replay tolerates, and appends the durability
	// points (open, commit, close). Submitted records are written as
	// soon as the store's flusher is free, with no timer; a crash loses
	// at most an ordered suffix of them.
	Submit(recs ...Record) (uint64, error)
	// LastSeq returns the highest sequence number the store has assigned
	// (or observed via Load) so far. Snapshot captures read it as a
	// watermark BEFORE walking session state: any record stamped
	// afterwards is guaranteed a higher seq, so compacting up to the
	// watermark can never drop a record the snapshot does not cover.
	LastSeq() uint64
	// WriteSnapshot persists a compacting image of live session state
	// and drops log records it covers.
	WriteSnapshot(snap Snapshot) error
	// Load replays snapshot + log into per-session states and returns
	// the highest sequence number seen.
	Load() (map[string]*SessionState, uint64, error)
	// LoadSession replays a single session (the cluster takeover path:
	// a peer rehydrates one session from the shared directory). Returns
	// nil state when the session is unknown or closed.
	LoadSession(id string) (*SessionState, error)
	// Stats reports counters for /metrics.
	Stats() Stats
	// Close flushes pending submissions and releases resources.
	Close() error
}

// Stats are monotonic counters exposed as edfd_store_* metrics.
type Stats struct {
	// Records appended (log records written, durable or queued).
	Records uint64
	// Appends is the number of Append/Submit calls.
	Appends uint64
	// Flushes is the number of group-commit batches written.
	Flushes uint64
	// Syncs is the number of fsync calls (0 with NoSync).
	Syncs uint64
	// Bytes written to the log.
	Bytes uint64
	// Snapshots written.
	Snapshots uint64
	// Truncations performed during replay (torn/corrupt tails dropped).
	Truncations uint64
}
