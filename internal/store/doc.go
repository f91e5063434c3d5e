// Package store is the durable-state subsystem for admission sessions:
// an append-only write-ahead decision log with group-commit batching,
// periodic compacting snapshots, and the Store interface the service
// journals through, implemented by one backend, DiskStore, over a
// directory (edfd -store-dir; tests open one in a temporary directory
// with NoSync).
//
// # Log format
//
// The disk log is a sequence of length-prefixed, CRC-framed records:
//
//	[4B little-endian payload length][4B little-endian CRC32 (IEEE) of payload][payload]
//
// where payload is the JSON encoding of a Record. Replay reads records
// until the first torn, truncated or CRC-corrupt frame and stops there;
// Open repairs the process's own segment by truncating the damaged tail
// before the segment goes live for appends (recovery is the only safe
// time to truncate — a live segment may be mid-write). A crash can only
// lose an ordered suffix of unsynced records, never corrupt earlier
// state, and replay never panics on a damaged tail.
//
// # Group commit
//
// Records ride a batcher with no timer: one flusher writes everything
// queued, in one write, whenever anything is queued. Records that
// arrive during a write form the next batch, so concurrent callers
// share one write and one fsync. Append blocks until its records, and
// every record queued before them, are durable; Submit enqueues in
// order and returns immediately. Callers use Submit for records whose
// loss is tolerable as a suffix (admit, rollback, expire) and Append
// for durability points (open, commit, close).
//
// Only what a caller waits on is fsynced: a batch carrying an Append
// (or Load's drain) is, and its fsync covers every submitted batch
// written before it; a batch nobody waits on is written without one.
// Close fsyncs a trailing unsynced write. Snapshots and compacted
// segments are written to a temporary file, fsynced, renamed into
// place, and the directory fsynced, so a crash cannot lose records
// already reported durable. NoSync skips every fsync.
//
// # Records and replay
//
// One record per session decision: open (carries the session config,
// i.e. the seed workload), admit (a proposed task, pending), commit
// (pending tasks become committed), rollback (pending tasks dropped),
// close and expire (session gone; replay excludes it so a restart
// cannot resurrect a swept session). Load folds the snapshot and log
// into per-session SessionState values without parsing any payload: a
// commit moves the pending admit payloads to Committed. The service
// layer rebuilds live Admission controllers from the config's seed
// followed by the committed tasks and gets bit-identical verdicts
// because the committed task order is preserved exactly; a session
// whose payloads it cannot decode fails alone.
//
// # Snapshots and shared directories
//
// WriteSnapshot persists the committed state of live sessions along
// with a per-session sequence watermark; replay skips log records at or
// below a session's watermark. After a snapshot the store compacts its
// own log segment, dropping records the snapshot covers.
//
// A store directory may be shared by several processes (the cluster
// takeover path): each node writes its own wal-<node>.log and
// snap-<node>.json so writers never contend, while Load and LoadSession
// read every segment. Sequence numbers are hybrid-clock values
// (max(last+1, unixNano)) so records from different nodes order
// correctly without coordination.
package store
