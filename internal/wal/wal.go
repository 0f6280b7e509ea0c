// Package wal implements the durable write-ahead edge log behind
// pathdb's live updates. The log is an append-only file of CRC-framed,
// length-prefixed records, fsync'd per append, so an update batch is on
// stable storage before the in-memory overlay ever sees it: a crash at
// any point loses at most the batch whose ApplyBatch had not yet
// returned.
//
// The log doubles as a log-structured manifest. Three record types
// share the file:
//
//   - Batch — one applied edge batch (the epoch it produced plus the
//     edges by name). Replaying batch records through the delta-join
//     maintenance path reconstructs the in-memory overlay tiers.
//   - Spill — a frozen overlay tier persisted as a format-v4 run file:
//     the file name and the contiguous batch-sequence range it covers.
//     Recovery loads the precomputed runs instead of re-deriving them,
//     bounding replay compute by the unspilled tail.
//   - Checkpoint — a durable (graph, index) pair capturing every batch
//     up to a sequence number. Rewriting the log down to its suffix
//     after a checkpoint is how the WAL is truncated.
//
// Torn tails are expected: Open scans records in order and truncates
// the file at the first frame whose length or checksum does not verify,
// which is exactly the state a crash mid-append leaves behind. Records
// before the tear are never touched; a record is only considered
// durable once Append has returned.
//
// The framing is deliberately self-contained (no external manifest, no
// side files) so that `rpq wal` can render the full durable state of a
// database from the one log file.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Record types. The zero type is invalid so a zeroed frame never
// verifies.
const (
	// TypeBatch frames one applied edge batch.
	TypeBatch uint8 = 1
	// TypeSpill frames a tier spilled to a v4 run file.
	TypeSpill uint8 = 2
	// TypeCheckpoint frames a durable (graph, index) base pair.
	TypeCheckpoint uint8 = 3
)

// Record is one decoded log record. Payload is the type-specific
// encoding (see EncodeBatch/EncodeSpill/EncodeCheckpoint); Seq numbers
// are assigned by Append, strictly increasing within one log.
type Record struct {
	Seq     uint64
	Type    uint8
	Payload []byte
}

// fileHeader is the 8-byte log preamble: magic plus format version.
var fileHeader = []byte{'P', 'W', 'A', 'L', 1, 0, 0, 0}

// frameHead is seq(8) + type(1) + payloadLen(4); the frame ends with a
// CRC32C over head+payload.
const frameHeadLen = 8 + 1 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Log is an open write-ahead log. A Log is not safe for concurrent
// Append/Rewrite from multiple goroutines; pathdb serializes writers
// under its update mutex.
type Log struct {
	f       *os.File
	path    string
	sync    bool
	nextSeq uint64
	size    int64
	records int
}

// Open opens (creating if absent) the log at path, verifies and decodes
// every intact record, repairs a torn tail by truncating it, and
// returns the log positioned for appending together with the decoded
// records. With sync set, every Append is fsync'd before returning —
// the durability contract; unsync'd logs are for tests and benchmarks
// that measure the overlay without the disk.
func Open(path string, sync bool) (*Log, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: opening log: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: reading log: %w", err)
	}
	if len(data) == 0 {
		// Fresh log: write the header now so a crash before the first
		// append still leaves a well-formed (empty) log.
		if _, err := f.Write(fileHeader); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: writing log header: %w", err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("wal: syncing log header: %w", err)
			}
		}
		l := &Log{f: f, path: path, sync: sync, nextSeq: 1, size: int64(len(fileHeader))}
		return l, nil, nil
	}
	records, good, err := decodeAll(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if good < int64(len(data)) {
		// Torn or corrupt tail — the expected crash residue. Everything
		// before the tear is intact; drop the rest so the next append
		// starts at a clean frame boundary.
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if sync {
			if err := f.Sync(); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("wal: syncing repaired log: %w", err)
			}
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: seeking to log end: %w", err)
	}
	next := uint64(1)
	if n := len(records); n > 0 {
		next = records[n-1].Seq + 1
	}
	l := &Log{f: f, path: path, sync: sync, nextSeq: next, size: good, records: len(records)}
	return l, records, nil
}

// Inspect decodes the log at path without opening it for appending and
// without repairing anything — the read-only face of Open for tooling
// (`rpq wal`). It returns the intact records, the total file size, and
// the number of trailing bytes that fail to verify (torn crash residue
// Open would truncate; 0 for a clean log).
func Inspect(path string) (records []Record, size, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: reading log: %w", err)
	}
	records, good, err := decodeAll(data)
	if err != nil {
		return nil, int64(len(data)), 0, err
	}
	return records, int64(len(data)), int64(len(data)) - good, nil
}

// decodeAll walks the frames of a log image, returning the intact
// records and the byte offset of the first frame that fails to verify
// (== len(data) when the whole file is intact). A malformed header is a
// hard error — that is not crash residue, appends never touch it.
func decodeAll(data []byte) ([]Record, int64, error) {
	if len(data) < len(fileHeader) || string(data[:4]) != string(fileHeader[:4]) {
		return nil, 0, fmt.Errorf("wal: not a WAL file (bad magic)")
	}
	if data[4] != fileHeader[4] {
		return nil, 0, fmt.Errorf("wal: unsupported WAL version %d", data[4])
	}
	var records []Record
	off := int64(len(fileHeader))
	prevSeq := uint64(0)
	for {
		rest := data[off:]
		if len(rest) < frameHeadLen+4 {
			break
		}
		seq := binary.LittleEndian.Uint64(rest)
		typ := rest[8]
		plen := binary.LittleEndian.Uint32(rest[9:])
		total := int64(frameHeadLen) + int64(plen) + 4
		if int64(len(rest)) < total {
			break // torn payload
		}
		want := binary.LittleEndian.Uint32(rest[frameHeadLen+int(plen):])
		if crc32.Checksum(rest[:frameHeadLen+int(plen)], crcTable) != want {
			break // torn or corrupt frame
		}
		if typ == 0 || seq <= prevSeq {
			break // zeroed/garbage frame that happened to checksum
		}
		payload := make([]byte, plen)
		copy(payload, rest[frameHeadLen:frameHeadLen+int(plen)])
		records = append(records, Record{Seq: seq, Type: typ, Payload: payload})
		prevSeq = seq
		off += total
	}
	return records, off, nil
}

// appendFrame encodes one record frame.
func appendFrame(buf []byte, seq uint64, typ uint8, payload []byte) []byte {
	var head [frameHeadLen]byte
	binary.LittleEndian.PutUint64(head[:], seq)
	head[8] = typ
	binary.LittleEndian.PutUint32(head[9:], uint32(len(payload)))
	buf = append(buf, head[:]...)
	buf = append(buf, payload...)
	crc := crc32.Checksum(buf[len(buf)-frameHeadLen-len(payload):], crcTable)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(buf, tail[:]...)
}

// Append writes one record and (for a sync log) fsyncs it, returning
// the assigned sequence number. When Append returns without error the
// record is durable; on error the caller must treat the batch as not
// applied (the next Open repairs any partial frame).
func (l *Log) Append(typ uint8, payload []byte) (uint64, error) {
	seq := l.nextSeq
	frame := appendFrame(nil, seq, typ, payload)
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	if l.sync {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: syncing record: %w", err)
		}
	}
	l.nextSeq = seq + 1
	l.size += int64(len(frame))
	l.records++
	return seq, nil
}

// Rewrite atomically replaces the log's contents with the given records
// (keeping their existing sequence numbers, which must be strictly
// increasing) — WAL truncation after a checkpoint. The replacement goes
// through a temp file + rename, so a crash mid-rewrite leaves either
// the old or the new log, never a mix. The log stays open for appends
// afterwards; sequence numbering continues from where it was (a
// truncation never reuses sequence numbers).
func (l *Log) Rewrite(records []Record) error {
	tmp := l.path + ".tmp"
	buf := append([]byte(nil), fileHeader...)
	prev := uint64(0)
	for _, r := range records {
		if r.Seq <= prev {
			return fmt.Errorf("wal: Rewrite records out of order (seq %d after %d)", r.Seq, prev)
		}
		prev = r.Seq
		buf = appendFrame(buf, r.Seq, r.Type, r.Payload)
	}
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("wal: writing rewritten log: %w", err)
	}
	if l.sync {
		if err := syncFile(tmp); err != nil {
			return err
		}
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return fmt.Errorf("wal: installing rewritten log: %w", err)
	}
	if l.sync {
		_ = syncDir(filepath.Dir(l.path))
	}
	f, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: reopening rewritten log: %w", err)
	}
	l.f.Close()
	l.f = f
	l.size = int64(len(buf))
	l.records = len(records)
	// nextSeq is preserved: truncation must never reuse sequence numbers
	// or later records could be mistaken for earlier ones.
	return nil
}

// Sync flushes the log to stable storage (a no-op after Append on a
// sync log).
func (l *Log) Sync() error { return l.f.Sync() }

// Close closes the log file.
func (l *Log) Close() error { return l.f.Close() }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Size returns the log's current byte size.
func (l *Log) Size() int64 { return l.size }

// Records returns the number of records in the log (decoded at Open
// plus appended since).
func (l *Log) Records() int { return l.records }

// NextSeq returns the sequence number the next Append will assign.
func (l *Log) NextSeq() uint64 { return l.nextSeq }

func syncFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
