package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func openTest(t *testing.T, dir, node string) *DiskStore {
	t.Helper()
	s, err := Open(dir, node, Options{})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func cfg(tasks ...string) json.RawMessage {
	raw, _ := json.Marshal(map[string]any{"analyzer": "auto", "model": "sporadic", "tasks": tasks})
	return raw
}

func task(name string) json.RawMessage {
	raw, _ := json.Marshal(name)
	return raw
}

// journal writes a typical session history: open, two admits, commit,
// one more admit (left pending).
func journal(t *testing.T, s Store, id string) {
	t.Helper()
	must := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	must(s.Append(Record{Type: TypeOpen, Session: id, Config: cfg("seed")}))
	must(s.Submit(Record{Type: TypeAdmit, Session: id, Task: task("t1")}))
	must(s.Submit(Record{Type: TypeAdmit, Session: id, Task: task("t2")}))
	must(s.Append(Record{Type: TypeCommit, Session: id}))
	must(s.Submit(Record{Type: TypeAdmit, Session: id, Task: task("t3")}))
}

// wantState checks a replayed session: the config's tasks followed by
// the committed payloads, and the pending payloads.
func wantState(t *testing.T, st *SessionState, wantTasks []string, wantPending []string) {
	t.Helper()
	if st == nil {
		t.Fatalf("session state missing")
	}
	var c struct {
		Tasks []string `json:"tasks"`
	}
	if err := json.Unmarshal(st.Config, &c); err != nil {
		t.Fatalf("config: %v", err)
	}
	for _, p := range st.Committed {
		var v string
		if err := json.Unmarshal(p, &v); err != nil {
			t.Fatalf("committed: %v", err)
		}
		c.Tasks = append(c.Tasks, v)
	}
	if fmt.Sprint(c.Tasks) != fmt.Sprint(wantTasks) {
		t.Fatalf("committed tasks = %v, want %v", c.Tasks, wantTasks)
	}
	var pend []string
	for _, p := range st.Pending {
		var v string
		if err := json.Unmarshal(p, &v); err != nil {
			t.Fatalf("pending: %v", err)
		}
		pend = append(pend, v)
	}
	if fmt.Sprint(pend) != fmt.Sprint(wantPending) {
		t.Fatalf("pending = %v, want %v", pend, wantPending)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	sessions, _, err := s.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(sessions) != 1 {
		t.Fatalf("sessions = %d, want 1", len(sessions))
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2"}, []string{"t3"})

	// Restart: a fresh store over the same dir sees the same state.
	s.Close()
	s2 := openTest(t, dir, "a")
	sessions, _, err = s2.Load()
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2"}, []string{"t3"})
}

func TestCloseAndExpireExcludeFromReplay(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	journal(t, s, "s2")
	if _, err := s.Append(Record{Type: TypeClose, Session: "s1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Type: TypeExpire, Session: "s2"}); err != nil {
		t.Fatal(err)
	}
	sessions, _, err := s.Load()
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(sessions) != 0 {
		t.Fatalf("closed/expired sessions resurrected: %v", sessions)
	}
}

// corruptTail opens the single wal file in dir and mutates it.
func walFile(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("wal files = %v (err %v), want exactly 1", matches, err)
	}
	return matches[0]
}

func TestRecoverTornTailRecord(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	s.Close()

	// Tear the last record: chop bytes off the end, mid-payload.
	path := walFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, "a")
	sessions, _, err := s2.Load()
	if err != nil {
		t.Fatalf("load after torn tail: %v", err)
	}
	// The torn record is the pending t3 admit: committed state survives.
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2"}, nil)
	if s2.Stats().Truncations == 0 {
		t.Fatalf("expected a truncation to be counted")
	}
	// The file was repaired: a re-read is clean and appends still work.
	if _, err := s2.Append(Record{Type: TypeAdmit, Session: "s1", Task: task("t4")}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	sessions, _, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2"}, []string{"t4"})
}

func TestRecoverTruncatedLengthPrefix(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	s.Close()

	// Leave only 3 bytes of the final record's 8-byte header.
	path := walFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid, clean, err := readLog(bytes.NewReader(data))
	if err != nil || !clean || len(recs) != 5 {
		t.Fatalf("precondition: recs=%d clean=%v err=%v", len(recs), clean, err)
	}
	// valid == len(data); compute the start of the last frame.
	lastStart := frameStart(data, len(recs)-1)
	if err := os.WriteFile(path, data[:lastStart+3], 0o644); err != nil {
		t.Fatal(err)
	}
	_ = valid

	s2 := openTest(t, dir, "a")
	sessions, _, err := s2.Load()
	if err != nil {
		t.Fatalf("load after truncated prefix: %v", err)
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2"}, nil)
}

func TestRecoverCRCCorruptMidLog(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	s.Close()

	// Flip a payload byte inside the commit record (4th of 5). Replay
	// must stop at the last valid record before it — the t2 admit — so
	// the commit and the t3 admit are both lost (an ordered suffix).
	path := walFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := frameStart(data, 3)
	data[start+frameHeader+2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, "a")
	sessions, _, err := s2.Load()
	if err != nil {
		t.Fatalf("load after mid-log corruption: %v", err)
	}
	wantState(t, sessions["s1"], []string{"seed"}, []string{"t1", "t2"})
}

// frameStart returns the byte offset of the idx-th frame.
func frameStart(data []byte, idx int) int {
	off := 0
	for i := 0; i < idx; i++ {
		length := int(binary.LittleEndian.Uint32(data[off : off+4]))
		off += frameHeader + length
	}
	return off
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	sessions, maxSeq, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	st := sessions["s1"]
	snap := Snapshot{Seq: maxSeq, Sessions: []SessionState{*st}}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	// The segment compacted away the covered records.
	info, err := os.Stat(walFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("wal size after compaction = %d, want 0", info.Size())
	}
	// State still replays (from the snapshot) and appends continue.
	if _, err := s.Append(Record{Type: TypeCommit, Session: "s1"}); err != nil {
		t.Fatal(err)
	}
	sessions, _, err = s.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2", "t3"}, nil)

	// Restart replays snapshot + post-snapshot log.
	s.Close()
	s2 := openTest(t, dir, "a")
	sessions, _, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2", "t3"}, nil)
}

func TestSnapshotDoesNotResurrectClosed(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	sessions, maxSeq, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	st := sessions["s1"]
	snap := Snapshot{Seq: maxSeq, Sessions: []SessionState{*st}}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(Record{Type: TypeExpire, Session: "s1"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTest(t, dir, "a")
	sessions, _, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 0 {
		t.Fatalf("expired session resurrected from snapshot: %v", sessions)
	}
}

func TestSharedDirTwoNodes(t *testing.T) {
	dir := t.TempDir()
	a := openTest(t, dir, "a")
	b := openTest(t, dir, "b")
	journal(t, a, "s1")
	journal(t, b, "s2")

	// Each node sees both sessions (shared directory).
	for _, s := range []*DiskStore{a, b} {
		sessions, _, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		if len(sessions) != 2 {
			t.Fatalf("sessions = %d, want 2", len(sessions))
		}
	}

	// Takeover: node b rehydrates node a's session.
	st, err := b.LoadSession("s1")
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, st, []string{"seed", "t1", "t2"}, []string{"t3"})

	// Corruption in a's segment must not be repaired by b...
	a.Close()
	pathA := filepath.Join(dir, "wal-a.log")
	data, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pathA, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.Load(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(pathA)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(data)-5 {
		t.Fatalf("foreign segment was modified: %d -> %d bytes", len(data)-5, len(after))
	}
}

// TestConcurrentLoadDuringAppends hammers Load while appends are in
// flight: a live Load must never observe a batch mid-write — and above
// all must never "repair" (truncate) the segment it races with, which
// would destroy records whose Append callers were already told are
// durable.
func TestConcurrentLoadDuringAppends(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	if _, err := s.Append(Record{Type: TypeOpen, Session: "s1", Config: cfg("seed")}); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var loads sync.WaitGroup
	for range 2 {
		loads.Add(1)
		go func() {
			defer loads.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.Load(); err != nil {
					t.Errorf("concurrent load: %v", err)
					return
				}
			}
		}()
	}
	const n = 200
	for i := range n {
		if _, err := s.Append(Record{Type: TypeAdmit, Session: "s1", Task: task(fmt.Sprintf("t%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	loads.Wait()
	if tr := s.Stats().Truncations; tr != 0 {
		t.Fatalf("live Load truncated the segment %d times", tr)
	}
	sessions, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sessions["s1"].Pending); got != n {
		t.Fatalf("pending after concurrent loads = %d, want %d (durable records lost)", got, n)
	}
}

// TestLiveLoadLeavesMidWriteTailAlone is the deterministic version of
// the race above: a partial frame is appended to the live segment out
// of band — byte-for-byte what a reader racing writeBatch could
// observe mid-write — and Load must replay up to it WITHOUT repairing
// the file. Truncating here would destroy the batch the writer is
// about to finish (and has possibly already acked as durable).
func TestLiveLoadLeavesMidWriteTailAlone(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	s.drain()
	path := walFile(t, dir)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil { // header fragment
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	sessions, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2"}, []string{"t3"})
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != before.Size() {
		t.Fatalf("live Load modified the segment: %d -> %d bytes", before.Size(), after.Size())
	}
	if tr := s.Stats().Truncations; tr != 0 {
		t.Fatalf("live Load counted %d truncations, want 0", tr)
	}
}

// TestSnapshotWatermarkKeepsLaterRecords pins the capture protocol: a
// snapshot whose Seq watermark was read before later records were
// stamped must not compact those records away — the shape of a session
// whose open record lands while a snapshot capture is walking the
// session map.
func TestSnapshotWatermarkKeepsLaterRecords(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	journal(t, s, "s1")
	wm := s.LastSeq()
	if _, err := s.Append(Record{Type: TypeOpen, Session: "s2", Config: cfg("late")}); err != nil {
		t.Fatal(err)
	}
	sessions, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	st := sessions["s1"]
	snap := Snapshot{Seq: wm, Sessions: []SessionState{*st}}
	if err := s.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2 := openTest(t, dir, "a")
	sessions, _, err = s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if sessions["s2"] == nil {
		t.Fatal("open record stamped after the snapshot watermark was compacted away")
	}
	wantState(t, sessions["s1"], []string{"seed", "t1", "t2"}, []string{"t3"})
}

// TestDefaultNodeStable pins the default node-name contract: minted
// once, persisted in the directory, identical on every later call — so
// a restarted edfd with an ephemeral listen address keeps its segments.
func TestDefaultNodeStable(t *testing.T) {
	dir := t.TempDir()
	a, err := DefaultNode(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a == "" || strings.ContainsAny(a, "/\\ ") {
		t.Fatalf("bad default node name %q", a)
	}
	b, err := DefaultNode(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("default node name changed across calls: %q then %q", a, b)
	}
	st, err := Open(dir, a, Options{})
	if err != nil {
		t.Fatalf("open with default node: %v", err)
	}
	st.Close()
}

func TestGroupCommitAmortizesFsync(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "a", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Append(Record{Type: TypeOpen, Session: "s1", Config: cfg()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := s.Submit(Record{Type: TypeAdmit, Session: "s1", Task: task("t")}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Append(Record{Type: TypeCommit, Session: "s1"}); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Records != 66 {
		t.Fatalf("records = %d, want 66", st.Records)
	}
	// 64 submits + 2 appends in at most a handful of flushes; without
	// group commit this would be up to 66.
	if st.Syncs > 8 {
		t.Fatalf("syncs = %d, want <= 8 (group commit not amortizing)", st.Syncs)
	}
}

// waitRecords waits until the store has written n records.
func waitRecords(t *testing.T, s *DiskStore, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Records < n {
		if time.Now().After(deadline) {
			t.Fatalf("records written = %d, want %d", s.Stats().Records, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// submitAdmits submits n admit records of session s1, one per call.
func submitAdmits(t *testing.T, s Store, n int) {
	t.Helper()
	for i := range n {
		if _, err := s.Submit(Record{Type: TypeAdmit, Session: "s1", Task: task(fmt.Sprintf("t%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSubmitWritesWithoutAppend: submitted records reach the segment
// on their own, with no Append, Load or Close to carry them.
func TestSubmitWritesWithoutAppend(t *testing.T) {
	s := openTest(t, t.TempDir(), "a")
	submitAdmits(t, s, 3)
	waitRecords(t, s, 3)
}

// TestIdleAppendWritesAtOnce: an Append on an idle store is written at
// once rather than held for company, so the median of sequential
// Appends stays far below a millisecond.
func TestIdleAppendWritesAtOnce(t *testing.T) {
	s, err := Open(t.TempDir(), "a", Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	lat := make([]time.Duration, 21)
	for i := range lat {
		start := time.Now()
		if _, err := s.Append(Record{Type: TypeOpen, Session: fmt.Sprintf("s%d", i), Config: cfg()}); err != nil {
			t.Fatal(err)
		}
		lat[i] = time.Since(start)
	}
	slices.Sort(lat)
	if med := lat[len(lat)/2]; med >= time.Millisecond {
		t.Fatalf("median Append latency on an idle store = %v, want under 1ms", med)
	}
}

// TestAppendFlushesSubmitted: an Append returns only once every record
// submitted before it is written, and the log holds them in sequence
// order with the Append's returned seq last.
func TestAppendFlushesSubmitted(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	submitAdmits(t, s, 3)
	last, err := s.Append(Record{Type: TypeCommit, Session: "s1"})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 4 {
		t.Fatalf("after Append: records=%d, want 4", st.Records)
	}
	recs, _, err := readLogFile(walFile(t, dir), false)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for i, rec := range recs {
		types = append(types, rec.Type)
		if i > 0 && rec.Seq <= recs[i-1].Seq {
			t.Fatalf("record %d seq %d not above its predecessor's %d", i, rec.Seq, recs[i-1].Seq)
		}
	}
	if want := "[admit admit admit commit]"; fmt.Sprint(types) != want {
		t.Fatalf("log = %v, want %s", types, want)
	}
	if recs[3].Seq != last {
		t.Fatalf("Append returned seq %d, the log holds %d", last, recs[3].Seq)
	}
}

// TestLoadAndCloseFlushSubmitted: Load's drain and Close write whatever
// is still queued.
func TestLoadAndCloseFlushSubmitted(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	if _, err := s.Append(Record{Type: TypeOpen, Session: "s1", Config: cfg("seed")}); err != nil {
		t.Fatal(err)
	}
	submitAdmits(t, s, 3)
	sessions, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 4 {
		t.Fatalf("after Load: records=%d, want 4", st.Records)
	}
	wantState(t, sessions["s1"], []string{"seed"}, []string{"t0", "t1", "t2"})

	submitAdmits(t, s, 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Records != 6 {
		t.Fatalf("after Close: records=%d, want 6", st.Records)
	}
	sessions, _, err = openTest(t, dir, "a").Load()
	if err != nil {
		t.Fatal(err)
	}
	wantState(t, sessions["s1"], []string{"seed"}, []string{"t0", "t1", "t2", "t0", "t1"})
}

// TestConcurrentAppendsShareFlushes: Appends that arrive while a batch
// is being written and fsynced wait for the next flush together, so
// concurrent durability points share writes; every record still lands.
func TestConcurrentAppendsShareFlushes(t *testing.T) {
	s := openTest(t, t.TempDir(), "a")
	const writers, each = 16, 20
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("s%d", w)
			if _, err := s.Append(Record{Type: TypeOpen, Session: id, Config: cfg("seed")}); err != nil {
				t.Error(err)
				return
			}
			for i := range each - 1 {
				if _, err := s.Append(Record{Type: TypeAdmit, Session: id, Task: task(fmt.Sprintf("t%d", i))}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Records != writers*each {
		t.Fatalf("records = %d, want %d", st.Records, writers*each)
	}
	if st.Flushes >= st.Records {
		t.Fatalf("flushes = %d for %d concurrent appends: no flush was shared", st.Flushes, st.Records)
	}
	sessions, _, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	for w := range writers {
		if st := sessions[fmt.Sprintf("s%d", w)]; st == nil || len(st.Pending) != each-1 {
			t.Fatalf("session s%d = %+v, want %d pending admits", w, st, each-1)
		}
	}
}

// TestRestartDecodesSegmentOnce: Open decodes the own segment to find a
// damaged tail, and the first Load replays those records rather than
// decoding the file again, so a restart (Open + Load) allocates about
// what a Load that reads the segment does. The repair point stays where
// Load stops: here at a frame whose CRC holds but whose payload is not a
// record, and both Loads replay the same prefix.
func TestRestartDecodesSegmentOnce(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	for i := range 32 {
		journal(t, s, fmt.Sprintf("s%d", i))
	}
	s.Close()
	path := walFile(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := encodeRecords([]Record{{Type: TypeAdmit, Session: "s0", Task: task("lost")}})
	if err != nil {
		t.Fatal(err)
	}
	damaged := append(appendFrame(slices.Clone(data), []byte(`{"type":`)), tail...)
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, "a")
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) || s2.Stats().Truncations != 1 {
		t.Fatalf("Open kept %d of %d bytes (%d truncations, err %v), want the %d before the bad frame",
			len(got), len(damaged), s2.Stats().Truncations, err, len(data))
	}
	first, _, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	again, _, err := s2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) || len(first) != 32 {
		t.Fatalf("first Load replayed %d sessions, a re-read %d, or they differ", len(first), len(again))
	}
	wantState(t, first["s0"], []string{"seed", "t1", "t2"}, []string{"t3"})
	s2.Close()

	restart := testing.AllocsPerRun(5, func() {
		s, err := Open(dir, "a", Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.Load(); err != nil {
			t.Fatal(err)
		}
		s.Close()
	})
	s3 := openTest(t, dir, "a")
	if _, _, err := s3.Load(); err != nil {
		t.Fatal(err)
	}
	reload := testing.AllocsPerRun(5, func() {
		if _, _, err := s3.Load(); err != nil {
			t.Fatal(err)
		}
	})
	if restart > reload*5/4 {
		t.Fatalf("Open + Load: %.0f allocs, a segment-reading Load %.0f: the restart decodes the segment twice", restart, reload)
	}
	t.Logf("Open + Load %.0f allocs, Load %.0f", restart, reload)
}

// TestSubmitDefersFsyncToAppend: submitted records are written without
// an fsync; the next Append's one fsync covers them, Close fsyncs a
// trailing unsynced write, and every record replays.
func TestSubmitDefersFsyncToAppend(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, "a")
	if _, err := s.Append(Record{Type: TypeOpen, Session: "s1", Config: cfg("seed")}); err != nil {
		t.Fatal(err)
	}
	base := s.Stats().Syncs
	const n = 16
	submitAdmits(t, s, n)
	waitRecords(t, s, n+1)
	if got := s.Stats().Syncs - base; got != 0 {
		t.Fatalf("%d written submits caused %d fsyncs, want 0", n, got)
	}
	if _, err := s.Append(Record{Type: TypeCommit, Session: "s1"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs - base; got != 1 {
		t.Fatalf("the Append after %d submits caused %d fsyncs, want 1", n, got)
	}
	submitAdmits(t, s, 1)
	waitRecords(t, s, n+3)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Syncs - base; got != 2 {
		t.Fatalf("Close after an unsynced submit: %d fsyncs since the open, want 2", got)
	}
	sessions, _, err := openTest(t, dir, "a").Load()
	if err != nil {
		t.Fatal(err)
	}
	committed := []string{"seed"}
	for i := range n {
		committed = append(committed, fmt.Sprintf("t%d", i))
	}
	wantState(t, sessions["s1"], committed, []string{"t0"})
}

// TestWriteSnapshotSyncs: a snapshot and the compacted segment are
// fsynced before their renames and the directory after each, so a crash
// cannot lose records already reported durable; NoSync skips all four.
func TestWriteSnapshotSyncs(t *testing.T) {
	for _, noSync := range []bool{false, true} {
		s, err := Open(t.TempDir(), "a", Options{NoSync: noSync})
		if err != nil {
			t.Fatal(err)
		}
		journal(t, s, "s1")
		sessions, maxSeq, err := s.Load()
		if err != nil {
			t.Fatal(err)
		}
		base := s.Stats().Syncs
		if err := s.WriteSnapshot(Snapshot{Seq: maxSeq, Sessions: []SessionState{*sessions["s1"]}}); err != nil {
			t.Fatal(err)
		}
		want := uint64(4)
		if noSync {
			want = 0
		}
		if got := s.Stats().Syncs - base; got != want {
			t.Errorf("NoSync %v: WriteSnapshot caused %d fsyncs, want %d", noSync, got, want)
		}
		s.Close()
	}
}
