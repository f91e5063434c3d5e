package store

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// frameHeader is [4B LE payload length][4B LE CRC32(payload)].
const frameHeader = 8

// maxFrame bounds a single record's payload so a corrupt length prefix
// cannot drive a multi-gigabyte allocation during replay.
const maxFrame = 16 << 20

// appendFrame appends the framed encoding of payload to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// encodeRecords frames records into one contiguous buffer (one batch =
// one write).
func encodeRecords(recs []Record) ([]byte, error) {
	var buf []byte
	for i := range recs {
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			return nil, fmt.Errorf("store: encode record: %w", err)
		}
		buf = appendFrame(buf, payload)
	}
	return buf, nil
}

// readLog reads framed records from r until EOF or the first damaged
// frame (short header, truncated payload, oversized length, or CRC
// mismatch). It returns the records read, the byte offset of the first
// damaged frame (== total valid bytes), and whether the log was clean
// (no damage, ended exactly at EOF). Damage is not an error: the caller
// truncates at valid and carries on.
func readLog(r io.Reader) (recs []Record, valid int64, clean bool, err error) {
	var hdr [frameHeader]byte
	for {
		n, rerr := io.ReadFull(r, hdr[:])
		if rerr == io.EOF {
			return recs, valid, true, nil
		}
		if rerr != nil {
			// Torn header (io.ErrUnexpectedEOF) or read error partway: stop
			// at the last whole record.
			if rerr == io.ErrUnexpectedEOF {
				return recs, valid, false, nil
			}
			return recs, valid, false, rerr
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxFrame {
			return recs, valid, false, nil
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(r, payload); rerr != nil {
			if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
				return recs, valid, false, nil
			}
			return recs, valid, false, rerr
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, valid, false, nil
		}
		var rec Record
		if jerr := json.Unmarshal(payload, &rec); jerr != nil {
			// CRC passed but the payload is not a record — treat as
			// corruption, same as a CRC failure.
			return recs, valid, false, nil
		}
		recs = append(recs, rec)
		valid += int64(n) + int64(length)
	}
}

// readLogFile reads a segment file, truncating it at the first damaged
// frame when own is true (we may only repair our own segment; a foreign
// node's damage is reported but left alone). Returns the records and
// whether a truncation happened.
func readLogFile(path string, own bool) (recs []Record, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	// Buffered, a replay reads the file in blocks rather than with two
	// reads per frame.
	recs, valid, clean, err := readLog(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return nil, false, fmt.Errorf("store: read %s: %w", path, err)
	}
	if !clean && own {
		if err := os.Truncate(path, valid); err != nil {
			return nil, false, fmt.Errorf("store: truncate %s: %w", path, err)
		}
		truncated = true
	}
	return recs, truncated, nil
}
