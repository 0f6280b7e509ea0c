package pathindex

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func TestSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := randomGraph(r, 25, 60, 2)
	orig, err := Build(g, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := ReadFrom(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.K() != orig.K() || loaded.NumEntries() != orig.NumEntries() ||
		loaded.NumLabelPaths() != orig.NumLabelPaths() || loaded.PathsKCount() != orig.PathsKCount() {
		t.Fatalf("shape changed: %d/%d/%d/%d vs %d/%d/%d/%d",
			loaded.K(), loaded.NumEntries(), loaded.NumLabelPaths(), loaded.PathsKCount(),
			orig.K(), orig.NumEntries(), orig.NumLabelPaths(), orig.PathsKCount())
	}
	orig.AllPaths(func(id uint32, p Path, count int) {
		if loaded.Count(p) != count {
			t.Errorf("path %s: count %d vs %d", p.Format(g), loaded.Count(p), count)
		}
		if !pairsEqual(collect(Scan(loaded, p)), collect(Scan(orig, p))) {
			t.Errorf("path %s: relations differ after round trip", p.Format(g))
		}
	})
}

func TestSaveLoadFile(t *testing.T) {
	g := graph.ExampleGraph()
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gex.pidx")
	if err := orig.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path, g)
	if err != nil {
		t.Fatal(err)
	}
	knows, _ := g.LookupLabel("knows")
	p := Path{graph.Fwd(knows), graph.Fwd(knows)}
	if !pairsEqual(collect(Scan(loaded, p)), collect(Scan(orig, p))) {
		t.Error("knows/knows differs after file round trip")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.pidx"), g); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	g := graph.ExampleGraph()
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// A graph with a different label vocabulary must be rejected.
	other := graph.New()
	other.AddEdge("x", "likes", "y")
	other.Freeze()
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Error("index attached to a graph with different labels")
	}
	// Same label count, different names.
	other2 := graph.New()
	other2.AddEdge("x", "a", "y")
	other2.AddEdge("x", "b", "y")
	other2.AddEdge("x", "c", "y")
	other2.Freeze()
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes()), other2); err == nil {
		t.Error("index attached to a graph with renamed labels")
	}
	// Unfrozen graph.
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes()), graph.New()); err == nil {
		t.Error("index attached to an unfrozen graph")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	g := graph.ExampleGraph()
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncations at various points must all fail cleanly.
	for _, cut := range []int{0, 2, 4, 8, 20, len(full) / 2, len(full) - 1} {
		if _, err := ReadFrom(bytes.NewReader(full[:cut]), g); err == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] = 'Z'
	if _, err := ReadFrom(bytes.NewReader(bad), g); err == nil {
		t.Error("bad magic not detected")
	}
	// Bad version.
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if _, err := ReadFrom(bytes.NewReader(bad), g); err == nil {
		t.Error("bad version not detected")
	}
}

func TestSerializedQueriesAfterLoad(t *testing.T) {
	// A loaded index must serve ScanFrom and Contains exactly like the
	// original (exercises the rebuilt B+tree, not just full scans).
	r := rand.New(rand.NewSource(31))
	g := randomGraph(r, 20, 50, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadFrom(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	orig.AllPaths(func(id uint32, p Path, count int) {
		for src := 0; src < g.NumNodes(); src += 3 {
			a := collect(ScanFrom(orig, p, graph.NodeID(src)))
			b := collect(ScanFrom(loaded, p, graph.NodeID(src)))
			if !pairsEqual(a, b) {
				t.Errorf("ScanFrom(%s, %d) differs", p.Format(g), src)
			}
		}
	})
}
