package graph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// withCRC appends the snapshot checksum of body, so a fuzzed body gets
// past the checksum to the decoder behind it.
func withCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, snapCRC))
}

// FuzzSnapshot feeds arbitrary snapshot bodies, checksummed, to
// LoadSnapshot, seeded with snapshots SaveSnapshot wrote. Whatever the
// input, LoadSnapshot returns an error or a graph and never panics; a
// graph it returns saves to a snapshot that loads back to the same
// bytes.
func FuzzSnapshot(f *testing.F) {
	empty := New()
	empty.Freeze()
	small := New()
	small.AddEdge("a", "knows", "b")
	small.AddEdge("b", "knows", "a")
	small.AddEdge("b", "likes", "c")
	small.Node("isolated")
	small.Freeze()
	for _, g := range []*Graph{empty, small, ExampleGraph()} {
		path := filepath.Join(f.TempDir(), "seed.snap")
		if err := g.SaveSnapshot(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data[:len(data)-4])
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "g.snap")
		if err := os.WriteFile(path, withCRC(body), 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := LoadSnapshot(path)
		if err != nil {
			return
		}
		saved := g.WriteSnapshotBytes()
		if err := os.WriteFile(path, saved, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := LoadSnapshot(path)
		if err != nil {
			t.Fatalf("a loaded snapshot does not load after saving: %v", err)
		}
		if !bytes.Equal(again.WriteSnapshotBytes(), saved) {
			t.Fatal("a loaded snapshot does not survive a save and load")
		}
	})
}
