package store

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes through readLog, the reader every
// segment replays through, and folds the records it returns through the
// replayer as Load does. Each input is read twice: as raw log bytes, and
// with each of its lines framed as one record's payload, so the fuzzer
// also reaches the record decoder and the fold behind the frames' CRCs.
// Neither may panic; valid never exceeds the input, a clean read
// consumes all of it, and re-reading the valid prefix is clean and gives
// the same records.
func FuzzWALReplay(f *testing.F) {
	recs := []Record{
		{Seq: 1, Time: 1700000000000000000, Type: TypeOpen, Session: "s1", Config: cfg("seed")},
		{Seq: 2, Type: TypeAdmit, Session: "s1", Task: task("t1")},
		{Seq: 3, Type: TypeCommit, Session: "s1"},
		{Seq: 4, Type: TypeAdmit, Session: "s1", Task: task("t2")},
		{Seq: 5, Type: TypeRollback, Session: "s1"},
		{Seq: 6, Type: TypeOpen, Session: "s2", Config: cfg()},
		{Seq: 7, Type: TypeClose, Session: "s2"},
		{Seq: 8, Type: TypeExpire, Session: "s1"},
	}
	log, err := encodeRecords(recs)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(log)
	f.Add(log[:len(log)-3])    // torn tail
	f.Add(log[:frameHeader/2]) // torn length prefix
	f.Add([]byte{})
	flipped := slices.Clone(log)
	flipped[len(flipped)/2] ^= 0x40 // mid-log damage
	f.Add(flipped)
	var lines [][]byte
	for _, rec := range recs {
		payload, err := encodeRecords([]Record{rec})
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, payload[frameHeader:])
	}
	f.Add(bytes.Join(lines, []byte{'\n'}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		var framed []byte
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			framed = appendFrame(framed, line)
		}
		checkReplay(t, framed)
	})
}

// checkReplay reads data as one segment and folds what it holds.
func checkReplay(t *testing.T, data []byte) {
	recs, valid, clean, err := readLog(bytes.NewReader(data))
	switch {
	case err != nil:
		t.Fatalf("readLog of %q: %v", data, err)
	case valid > int64(len(data)) || clean && valid != int64(len(data)):
		t.Fatalf("readLog of %d bytes: valid %d, clean %v", len(data), valid, clean)
	}
	again, valid2, clean2, err := readLog(bytes.NewReader(data[:valid]))
	if err != nil || !clean2 || valid2 != valid || !reflect.DeepEqual(again, recs) {
		t.Fatalf("re-reading the %d valid bytes of %q: %d records, valid %d, clean %v, %v; first read %d records",
			valid, data, len(again), valid2, clean2, err, len(recs))
	}
	sortRecords(recs)
	r := newReplayer()
	for _, rec := range recs {
		if r.foldRecord(rec) != nil {
			break
		}
	}
	r.result()
}
