package wal_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	pathdb "repro"
	"repro/internal/wal"
)

// durableLog returns the WAL a real durable DB leaves behind after
// batches, spills, tier merges and a checkpoint: every record type the
// engine writes, framed as it frames them.
func durableLog(f *testing.F) []byte {
	f.Helper()
	g := pathdb.NewGraph()
	for i := range 12 {
		g.AddEdge(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", (i*5+1)%12))
		g.AddEdge(fmt.Sprintf("n%d", i), "b", fmt.Sprintf("n%d", (i*7+3)%12))
	}
	dir := f.TempDir()
	db, err := pathdb.BuildDurable(g, pathdb.Options{K: 2, CompactRatio: -1},
		pathdb.DurabilityOptions{Dir: dir, NoSync: true, SpillEntries: 1})
	if err != nil {
		f.Fatal(err)
	}
	for i := range 6 {
		batch := []pathdb.LabeledEdge{
			{Src: fmt.Sprintf("n%d", i), Label: "a", Dst: fmt.Sprintf("m%d", i)},
			{Src: fmt.Sprintf("m%d", i), Label: "b", Dst: fmt.Sprintf("n%d", i+3)},
		}
		if err := db.ApplyBatch(batch); err != nil {
			f.Fatal(err)
		}
		if i == 3 {
			if err := db.Compact(); err != nil {
				f.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, pathdb.WALFileName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzWAL feeds arbitrary bytes to the log decoder, as a whole log file
// and as one record payload of each type, seeded with a log written by a
// durable DB and with each of its payloads. Whatever the input, nothing
// panics: Inspect and Open agree on the intact records, whose sequence
// numbers strictly ascend; Open truncates the rest and appends after it;
// and a payload that decodes re-encodes to one that decodes identically.
func FuzzWAL(f *testing.F) {
	log := durableLog(f)
	f.Add(log)
	path := filepath.Join(f.TempDir(), "wal.log")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		f.Fatal(err)
	}
	recs, _, _, err := wal.Inspect(path)
	if err != nil {
		f.Fatal(err)
	}
	types := map[uint8]bool{}
	for _, r := range recs {
		f.Add(r.Payload)
		types[r.Type] = true
	}
	if len(types) != 3 {
		f.Fatalf("seed log holds record types %v, want all three", types)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, size, torn, err := wal.Inspect(path)
		if err == nil {
			if size != int64(len(data)) || torn < 0 || torn > size {
				t.Fatalf("Inspect: size %d, torn %d over %d bytes", size, torn, len(data))
			}
			for i := 1; i < len(recs); i++ {
				if recs[i].Seq <= recs[i-1].Seq {
					t.Fatalf("record %d has seq %d after %d", i, recs[i].Seq, recs[i-1].Seq)
				}
			}
			l, opened, err := wal.Open(path, false)
			if err != nil {
				t.Fatalf("Open refused a log Inspect read: %v", err)
			}
			if !reflect.DeepEqual(opened, recs) || l.Size() != size-torn {
				t.Fatalf("Open read %d records up to %d, Inspect %d up to %d", len(opened), l.Size(), len(recs), size-torn)
			}
			seq, err := l.Append(wal.TypeBatch, []byte("x"))
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if after, _, torn, err := wal.Inspect(path); err != nil || torn != 0 || len(after) != len(recs)+1 || after[len(recs)].Seq != seq {
				t.Fatalf("append after repair: %d records (torn %d, %v), want %d", len(after), torn, err, len(recs)+1)
			}
		}

		if b, err := wal.DecodeBatch(data); err == nil {
			if again, err := wal.DecodeBatch(wal.EncodeBatch(b)); err != nil || !reflect.DeepEqual(again, b) {
				t.Fatalf("batch %+v does not survive re-encoding: %+v, %v", b, again, err)
			}
		}
		if s, err := wal.DecodeSpill(data); err == nil {
			if again, err := wal.DecodeSpill(wal.EncodeSpill(s)); err != nil || again != s {
				t.Fatalf("spill %+v does not survive re-encoding: %+v, %v", s, again, err)
			}
		}
		if c, err := wal.DecodeCheckpoint(data); err == nil {
			if again, err := wal.DecodeCheckpoint(wal.EncodeCheckpoint(c)); err != nil || again != c {
				t.Fatalf("checkpoint %+v does not survive re-encoding: %+v, %v", c, again, err)
			}
		}
	})
}
