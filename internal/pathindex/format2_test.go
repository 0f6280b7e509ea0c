package pathindex

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

// assertSameIndex verifies that b answers every index operation exactly
// like a: shape, per-path counts, full scans, prefix ranges, block
// iteration, and membership probes.
func assertSameIndex(t *testing.T, g *graph.Graph, a, b dirStorage) {
	t.Helper()
	if a.K() != b.K() || a.NumEntries() != b.NumEntries() ||
		a.NumLabelPaths() != b.NumLabelPaths() || a.PathsKCount() != b.PathsKCount() {
		t.Fatalf("shape differs: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.K(), a.NumEntries(), a.NumLabelPaths(), a.PathsKCount(),
			b.K(), b.NumEntries(), b.NumLabelPaths(), b.PathsKCount())
	}
	a.AllPaths(func(id uint32, p Path, count int) {
		if got, ok := b.PathID(p); !ok || got != id {
			t.Fatalf("path %s: id %d/%v, want %d", p.Format(g), got, ok, id)
		}
		if !b.PathByID(id).Equal(p) {
			t.Fatalf("PathByID(%d) differs", id)
		}
		if b.Count(p) != count || b.CountByID(id) != count {
			t.Errorf("path %s: count %d/%d, want %d", p.Format(g), b.Count(p), b.CountByID(id), count)
		}
		ra, rb := a.Relation(p), b.Relation(p)
		if len(ra) != len(rb) {
			t.Fatalf("path %s: relation length %d vs %d", p.Format(g), len(ra), len(rb))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("path %s: relation differs at %d: %v vs %v", p.Format(g), i, ra[i], rb[i])
			}
		}
		for src := 0; src < g.NumNodes(); src += 7 {
			if !pairsEqual(collect(ScanFrom(a, p, graph.NodeID(src))), collect(ScanFrom(b, p, graph.NodeID(src)))) {
				t.Errorf("path %s: ScanFrom(%d) differs", p.Format(g), src)
			}
		}
		bi := b.Blocks(p).Sized(16)
		var viaBlocks []Packed
		for blk := bi.Next(); blk != nil; blk = bi.Next() {
			viaBlocks = append(viaBlocks, blk...)
		}
		if len(viaBlocks) != len(ra) {
			t.Errorf("path %s: block iteration yields %d pairs, want %d", p.Format(g), len(viaBlocks), len(ra))
		}
		for _, pr := range ra[:min(len(ra), 50)] {
			if !b.Contains(p, pr.Src(), pr.Dst()) {
				t.Errorf("path %s: Contains(%d,%d) = false for an indexed pair", p.Format(g), pr.Src(), pr.Dst())
			}
		}
	})
}

func TestV2RoundTripMapped(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomGraph(r, 40, 120, 3)
	orig, err := Build(g, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := orig.SaveV2(path); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.FileBytes() == 0 {
		t.Error("FileBytes = 0 on an open index")
	}
	assertSameIndex(t, g, orig, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // Close is idempotent
		t.Fatal(err)
	}
}

func TestV2ReadFileFallback(t *testing.T) {
	// The portable non-mmap path must serve identical answers.
	r := rand.New(rand.NewSource(42))
	g := randomGraph(r, 30, 90, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.v2")
	if err := orig.SaveV2(path); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := readFileAligned(path, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := parseV2(data, g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, orig, ix)
}

func TestLoadDetectsV2(t *testing.T) {
	// Load and ReadFrom transparently decode v2 files onto the heap.
	r := rand.New(rand.NewSource(43))
	g := randomGraph(r, 25, 70, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteV2To(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteV2To reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadFrom(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, orig, loaded)
}

func TestMigrateV1ToV3(t *testing.T) {
	g := graph.ExampleGraph()
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1 := filepath.Join(dir, "ix.v1")
	v3 := filepath.Join(dir, "ix.v3")
	if err := orig.Save(v1); err != nil {
		t.Fatal(err)
	}
	if err := Migrate(v1, v3, g); err != nil {
		t.Fatal(err)
	}
	// Migrate writes the current serving format (v3); OpenStorage must
	// route it to the compressed reader.
	st, err := OpenStorage(v3, g)
	if err != nil {
		t.Fatal(err)
	}
	c, ok := st.(*CompressedIndex)
	if !ok {
		t.Fatalf("OpenStorage(migrated file) = %T, want *CompressedIndex", st)
	}
	defer c.Close()
	assertSameIndex(t, g, orig, c)
}

func TestOpenMappedRejectsV1(t *testing.T) {
	g := graph.ExampleGraph()
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := filepath.Join(t.TempDir(), "ix.v1")
	if err := ix.Save(v1); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(v1, g); err == nil {
		t.Fatal("OpenMapped accepted a v1 file")
	}
}

func TestOpenMappedRejectsWrongGraph(t *testing.T) {
	g := graph.ExampleGraph()
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	v2 := filepath.Join(t.TempDir(), "ix.v2")
	if err := ix.SaveV2(v2); err != nil {
		t.Fatal(err)
	}
	other := graph.New()
	other.AddEdge("x", "likes", "y")
	other.Freeze()
	if _, err := OpenMapped(v2, other); err == nil {
		t.Fatal("mapped index attached to a graph with different labels")
	}
}

// TestMappedSaveRoundTrip re-serializes a mapped index (both formats)
// straight from its mapped runs and verifies a decoded copy agrees.
func TestMappedSaveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	g := randomGraph(r, 20, 60, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v2 := filepath.Join(dir, "ix.v2")
	if err := orig.SaveV2(v2); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(v2, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	resaved := filepath.Join(dir, "resaved.v1")
	if err := m.Save(resaved); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(resaved, g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, orig, loaded)
}
