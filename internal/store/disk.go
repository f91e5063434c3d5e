package store

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

var errClosed = errors.New("store: closed")

// Options tune the disk store.
type Options struct {
	// NoSync skips fsync after batch writes (tests/benchmarks only;
	// crash durability is lost).
	NoSync bool
}

// DiskStore is the production Store backend: a directory holding one
// write-ahead segment (wal-<node>.log) and one snapshot
// (snap-<node>.json) per node. Several processes may share the
// directory — each writes only its own pair, and Load reads all of
// them, which is what lets a takeover peer rehydrate a dead node's
// sessions.
type DiskStore struct {
	dir    string
	node   string
	noSync bool

	seqMu   sync.Mutex
	lastSeq uint64

	fileMu sync.Mutex
	f      *os.File
	// unsynced reports that the segment holds writes no fsync covers
	// yet: submitted records nobody waited on.
	unsynced bool
	// opened holds the records Open read from the own segment until the
	// first Load takes them; a write to the segment drops them first.
	opened []Record

	b *batcher

	closeOnce sync.Once
	closedCh  chan struct{}

	stRecords     atomic.Uint64
	stAppends     atomic.Uint64
	stFlushes     atomic.Uint64
	stSyncs       atomic.Uint64
	stBytes       atomic.Uint64
	stSnapshots   atomic.Uint64
	stTruncations atomic.Uint64
}

var _ Store = (*DiskStore)(nil)

// Open creates or reopens a disk store rooted at dir. node names this
// process's segment files; it must be unique among processes sharing
// dir and stable across restarts of the same logical replica (edfd uses
// a hash of the listen address).
func Open(dir, node string, opts Options) (*DiskStore, error) {
	if node == "" {
		node = "0"
	}
	if strings.ContainsAny(node, "/\\ ") {
		return nil, fmt.Errorf("store: invalid node name %q", node)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	s := &DiskStore{dir: dir, node: node, noSync: opts.NoSync, closedCh: make(chan struct{})}
	// Recovery-time repair: truncate any torn tail a crash left before
	// the segment goes live for appends. This is the only point where
	// the own segment may be truncated — once the batcher is running the
	// file can be mid-write, and a concurrent reader "repairing" it
	// would destroy records whose Append callers were already told are
	// durable.
	recs, truncated, err := readLogFile(s.walPath(node), true)
	if err != nil {
		return nil, err
	}
	if truncated {
		s.stTruncations.Add(1)
	}
	s.opened = recs
	f, err := os.OpenFile(s.walPath(node), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	s.f = f
	s.b = newBatcher(s)
	return s, nil
}

func (s *DiskStore) walPath(node string) string  { return filepath.Join(s.dir, "wal-"+node+".log") }
func (s *DiskStore) snapPath(node string) string { return filepath.Join(s.dir, "snap-"+node+".json") }

// nextSeqs assigns n hybrid-clock sequence numbers: monotonically
// increasing within the process and, because the base is wall-clock
// nanoseconds, ordered across processes sharing the directory without
// coordination (modulo clock skew, which only affects cross-node tie
// ordering, never correctness of a single session's records — a
// session is journaled by one node at a time).
func (s *DiskStore) nextSeqs(n int) uint64 {
	s.seqMu.Lock()
	base := uint64(time.Now().UnixNano())
	if base <= s.lastSeq {
		base = s.lastSeq + 1
	}
	s.lastSeq = base + uint64(n-1)
	s.seqMu.Unlock()
	return base
}

func (s *DiskStore) stamp(recs []Record) uint64 {
	base := s.nextSeqs(len(recs))
	now := time.Now().UnixNano()
	for i := range recs {
		recs[i].Seq = base + uint64(i)
		if recs[i].Time == 0 {
			recs[i].Time = now
		}
	}
	return base + uint64(len(recs)-1)
}

// Append writes records, together with every record queued before
// them, and blocks until they are durable.
func (s *DiskStore) Append(recs ...Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	last := s.stamp(recs)
	s.stAppends.Add(1)
	done, err := s.b.enqueue(recs, true)
	if err != nil {
		return 0, err
	}
	if err := <-done; err != nil {
		return 0, err
	}
	return last, nil
}

// Submit enqueues records in order and returns immediately; the
// flusher writes them as soon as it is free.
func (s *DiskStore) Submit(recs ...Record) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	last := s.stamp(recs)
	s.stAppends.Add(1)
	if _, err := s.b.enqueue(recs, false); err != nil {
		return 0, err
	}
	return last, nil
}

// writeBatch writes one batch to the segment in one write. When sync is
// set (somebody waits on the batch: an Append, or Load's drain) it then
// fsyncs the segment, which also covers every submitted batch written
// before it without one; a batch nobody waits on is left to the next
// such fsync, or to Close.
func (s *DiskStore) writeBatch(recs []Record, sync bool) error {
	buf, err := encodeRecords(recs)
	if err != nil {
		return err
	}
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	if len(buf) > 0 {
		s.opened = nil
		if _, err := s.f.Write(buf); err != nil {
			return fmt.Errorf("store: wal write: %w", err)
		}
		s.unsynced = true
		s.stFlushes.Add(1)
		s.stRecords.Add(uint64(len(recs)))
		s.stBytes.Add(uint64(len(buf)))
	}
	if !sync {
		return nil
	}
	return s.syncLocked()
}

// syncLocked fsyncs the segment if it holds writes no fsync covers yet;
// the caller holds fileMu.
func (s *DiskStore) syncLocked() error {
	if !s.unsynced {
		return nil
	}
	if err := s.sync(s.f); err != nil {
		return fmt.Errorf("store: wal sync: %w", err)
	}
	s.unsynced = false
	return nil
}

// sync fsyncs f, counting the call, unless the store runs with NoSync.
func (s *DiskStore) sync(f *os.File) error {
	if s.noSync {
		return nil
	}
	s.stSyncs.Add(1)
	return f.Sync()
}

// replaceFile writes data to path through a temporary file, fsynced,
// and a rename: a crash after the rename cannot leave a file whose data
// was lost. syncDir then makes the rename itself durable.
func (s *DiskStore) replaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = s.sync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// syncDir fsyncs the store directory, making the renames in it durable.
func (s *DiskStore) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return s.sync(d)
}

// WriteSnapshot persists the image under this node's snapshot file
// (write-temp, fsync, rename, fsync the directory) and compacts this
// node's segment the same way, dropping records the snapshot covers.
// Close/expire records are always retained so a stale image in another
// node's files cannot resurrect a dead session.
func (s *DiskStore) WriteSnapshot(snap Snapshot) error {
	data, err := json.MarshalIndent(&snap, "", " ")
	if err != nil {
		return fmt.Errorf("store: encode snapshot: %w", err)
	}
	if err := s.replaceFile(s.snapPath(s.node), data); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	s.stSnapshots.Add(1)
	return s.compact(snap)
}

// compact rewrites this node's segment keeping only records the
// snapshot does not cover.
func (s *DiskStore) compact(snap Snapshot) error {
	marks := make(map[string]uint64, len(snap.Sessions))
	for _, img := range snap.Sessions {
		marks[img.ID] = img.Seq
	}
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	s.opened = nil
	path := s.walPath(s.node)
	recs, truncated, err := readLogFile(path, true)
	if err != nil {
		return err
	}
	if truncated {
		s.stTruncations.Add(1)
	}
	var keep []Record
	for _, rec := range recs {
		switch {
		case rec.Type == TypeClose || rec.Type == TypeExpire:
			keep = append(keep, rec)
		case rec.Seq > snap.Seq:
			keep = append(keep, rec)
		default:
			if mark, ok := marks[rec.Session]; ok && rec.Seq > mark {
				keep = append(keep, rec)
			}
		}
	}
	buf, err := encodeRecords(keep)
	if err != nil {
		return err
	}
	if err := s.replaceFile(path, buf); err != nil {
		return err
	}
	// Reopen the handle on the new inode; queued batches flush to it.
	// The rewrite holds every record the old segment kept, synced.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: reopen wal after compaction: %w", err)
	}
	s.f.Close()
	s.f = f
	s.unsynced = false
	return s.syncDir()
}

// Load replays every snapshot and segment in the directory. A damaged
// frame stops that segment's replay without modifying the file: the own
// segment was repaired at Open and is read under fileMu here (so a
// batch mid-write can never be observed, let alone "repaired" away),
// and a foreign segment belongs to a process that repairs it itself.
// The first Load after Open replays the records Open decoded, unless
// the segment was written since.
func (s *DiskStore) Load() (map[string]*SessionState, uint64, error) {
	// Flush queued submissions first so Load observes everything this
	// process has written (tests reuse one store across "restarts").
	s.drain()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, 0, err
	}
	r := newReplayer()
	var all []Record
	var snapFiles, walFiles []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".json"):
			snapFiles = append(snapFiles, name)
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
			walFiles = append(walFiles, name)
		}
	}
	sort.Strings(snapFiles)
	sort.Strings(walFiles)
	for _, name := range snapFiles {
		data, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			return nil, 0, err
		}
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			// A half-written foreign snapshot (rename is atomic, so this
			// means external damage): skip it, the log still replays.
			continue
		}
		r.note(snap.Seq)
		for _, img := range snap.Sessions {
			r.foldSnapshot(img)
		}
	}
	ownWal := "wal-" + s.node + ".log"
	for _, name := range walFiles {
		var recs []Record
		var err error
		if name == ownWal {
			s.fileMu.Lock()
			if recs = s.opened; recs == nil {
				recs, _, err = readLogFile(filepath.Join(s.dir, name), false)
			}
			s.opened = nil
			s.fileMu.Unlock()
		} else {
			recs, _, err = readLogFile(filepath.Join(s.dir, name), false)
		}
		if err != nil {
			return nil, 0, err
		}
		all = append(all, recs...)
	}
	sortRecords(all)
	for _, rec := range all {
		if err := r.foldRecord(rec); err != nil {
			return nil, 0, err
		}
	}
	sessions, maxSeq := r.result()
	s.seqMu.Lock()
	if maxSeq > s.lastSeq {
		s.lastSeq = maxSeq
	}
	s.seqMu.Unlock()
	return sessions, maxSeq, nil
}

// LastSeq implements Store: the highest sequence number assigned (or
// observed via Load) so far.
func (s *DiskStore) LastSeq() uint64 {
	s.seqMu.Lock()
	defer s.seqMu.Unlock()
	return s.lastSeq
}

// LoadSession replays the directory and returns one session's state,
// or nil when it is unknown or closed.
func (s *DiskStore) LoadSession(id string) (*SessionState, error) {
	sessions, _, err := s.Load()
	if err != nil {
		return nil, err
	}
	return sessions[id], nil
}

// drain blocks until the batcher has flushed everything enqueued so
// far, by appending an empty durable batch behind it.
func (s *DiskStore) drain() {
	done, err := s.b.enqueue(nil, true)
	if err != nil {
		return
	}
	<-done
}

// Stats reports the store's counters.
func (s *DiskStore) Stats() Stats {
	return Stats{
		Records:     s.stRecords.Load(),
		Appends:     s.stAppends.Load(),
		Flushes:     s.stFlushes.Load(),
		Syncs:       s.stSyncs.Load(),
		Bytes:       s.stBytes.Load(),
		Snapshots:   s.stSnapshots.Load(),
		Truncations: s.stTruncations.Load(),
	}
}

// DefaultNode returns a stable default node name for dir: the name
// persisted in dir/node-id, minting and persisting a random one on
// first use. A restarted process reuses its segment files even when its
// listen address changes between runs (edfd -addr :0); processes
// SHARING a directory must pass explicit, distinct node names instead —
// they would otherwise all adopt the same persisted default.
func DefaultNode(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: create dir: %w", err)
	}
	path := filepath.Join(dir, "node-id")
	if data, err := os.ReadFile(path); err == nil {
		if name := strings.TrimSpace(string(data)); name != "" {
			return name, nil
		}
	} else if !os.IsNotExist(err) {
		return "", err
	}
	var buf [6]byte
	if _, err := rand.Read(buf[:]); err != nil {
		return "", err
	}
	name := "edfd-" + hex.EncodeToString(buf[:])
	// O_EXCL arbitrates concurrent first runs: exactly one process mints
	// the id, a loser adopts the winner's — or, in the unlikely window
	// before the winner's write lands, is told to name itself.
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if !os.IsExist(err) {
			return "", err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return "", rerr
		}
		if n := strings.TrimSpace(string(data)); n != "" {
			return n, nil
		}
		return "", fmt.Errorf("store: node-id in %s is being initialized by another process; pass an explicit node name", dir)
	}
	if _, err := f.WriteString(name + "\n"); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return name, nil
}

// Close writes pending submissions, fsyncs whatever no fsync covers yet
// and closes the segment.
func (s *DiskStore) Close() error {
	var err error
	s.closeOnce.Do(func() {
		s.b.close()
		s.fileMu.Lock()
		err = s.syncLocked()
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.fileMu.Unlock()
		close(s.closedCh)
	})
	return err
}
