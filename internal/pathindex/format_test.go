package pathindex

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
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
			if !pairsEqual(collect(a.SrcRange(p, graph.NodeID(src))), collect(b.SrcRange(p, graph.NodeID(src)))) {
				t.Errorf("path %s: SrcRange(%d) differs", p.Format(g), src)
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
			if !contains(b, p, pr.Src(), pr.Dst()) {
				t.Errorf("path %s: Contains(%d,%d) = false for an indexed pair", p.Format(g), pr.Src(), pr.Dst())
			}
		}
	})
}

// saveV3 writes ix to a fresh v3 file and returns its path.
func saveV3(t *testing.T, ix *Index) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.v3")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestV3RoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	g := randomGraph(r, 60, 400, 2)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var v3buf bytes.Buffer
	n, err := ix.WriteTo(&v3buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(v3buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, v3buf.Len())
	}
	if dataLen := binary.LittleEndian.Uint64(v3buf.Bytes()[88:]); dataLen >= uint64(8*ix.NumEntries()) {
		t.Errorf("v3 data section (%d bytes) not smaller than the raw pairs (%d bytes)", dataLen, 8*ix.NumEntries())
	}

	c, err := parseImage(v3buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, ix, c)
	if err := c.VerifyBlocks(); err != nil {
		t.Errorf("VerifyBlocks on a fresh image: %v", err)
	}
	m, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, ix, m)

	// The decode counters must have moved: the assertions above scanned
	// compressed runs.
	if blocks, bytes := c.DecodeStats(); blocks == 0 || bytes == 0 {
		t.Errorf("DecodeStats after scans = (%d, %d), want non-zero", blocks, bytes)
	}

	// File-backed round trip through every entry point.
	v3Path := saveV3(t, ix)
	oc, err := OpenCompressed(v3Path, g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, ix, oc)
	if oc.FileBytes() != v3buf.Len() {
		t.Errorf("FileBytes = %d, want %d", oc.FileBytes(), v3buf.Len())
	}
	if err := oc.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStorage(v3Path, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.(*CompressedIndex); !ok {
		t.Fatalf("OpenStorage on a v3 file returned %T, want *CompressedIndex", st)
	}
	st.(*CompressedIndex).Close()

	// Load decodes (and verifies) v3 images onto the heap.
	loaded, err := Load(v3Path, g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, ix, loaded)
}

// TestV3RoundTripMapped serves a k=3 index straight from its mapped file
// and checks the open-file bookkeeping: FileBytes, and a second Close.
func TestV3RoundTripMapped(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	g := randomGraph(r, 40, 120, 3)
	orig, err := Build(g, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := saveV3(t, orig)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := OpenCompressed(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if int64(m.FileBytes()) != fi.Size() {
		t.Errorf("FileBytes = %d, want the file size %d", m.FileBytes(), fi.Size())
	}
	assertSameIndex(t, g, orig, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil { // Close is idempotent
		t.Fatal(err)
	}
}

// TestSerializeRoundTrip is the in-memory image round trip at k=3, whose
// directory records are wider than at k=2.
func TestSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := randomGraph(r, 25, 60, 2)
	orig, err := Build(g, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := parseImage(buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, orig, c)
	loaded, err := c.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, orig, loaded)
}

func TestSaveLoadFile(t *testing.T) {
	g := graph.ExampleGraph()
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(saveV3(t, orig), g)
	if err != nil {
		t.Fatal(err)
	}
	knows, _ := g.LookupLabel("knows")
	p := Path{graph.Fwd(knows), graph.Fwd(knows)}
	if !pairsEqual(collect(loaded.Relation(p)), collect(orig.Relation(p))) {
		t.Error("knows/knows differs after file round trip")
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.pidx"), g); err == nil {
		t.Error("loading a missing file should fail")
	}
}

func TestSerializedQueriesAfterLoad(t *testing.T) {
	// A loaded index must serve SrcRange exactly like the original for
	// every source, not just the sample assertSameIndex probes.
	r := rand.New(rand.NewSource(31))
	g := randomGraph(r, 20, 50, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(saveV3(t, orig), g)
	if err != nil {
		t.Fatal(err)
	}
	orig.AllPaths(func(id uint32, p Path, count int) {
		for src := 0; src < g.NumNodes(); src++ {
			a := collect(orig.SrcRange(p, graph.NodeID(src)))
			b := collect(loaded.SrcRange(p, graph.NodeID(src)))
			if !pairsEqual(a, b) {
				t.Errorf("SrcRange(%s, %d) differs", p.Format(g), src)
			}
		}
	})
}

// TestMappedSaveRoundTrip re-saves an index opened from a mapped file —
// what saving an opened DB does — and verifies a decoded copy agrees.
func TestMappedSaveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(44))
	g := randomGraph(r, 20, 60, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCompressed(saveV3(t, orig), g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m, err := Materialize(c)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(saveV3(t, m), g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, orig, loaded)
}

// TestV3ReadFileFallback serves an image read into ordinary memory, as
// the open path does where mmap is unavailable, at an odd address: the
// format needs no alignment.
func TestV3ReadFileFallback(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randomGraph(r, 30, 90, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(saveV3(t, orig))
	if err != nil {
		t.Fatal(err)
	}
	odd := append(make([]byte, 1, len(data)+1), data...)[1:]
	c, err := parseImage(odd, g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, g, orig, c)
}

// wrongGraphs saves an index of the example graph and returns its path
// with graphs it must not attach to, keyed by how they differ.
func wrongGraphs(t *testing.T) (string, map[string]*graph.Graph) {
	t.Helper()
	orig, err := Build(graph.ExampleGraph(), 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A graph with a different label vocabulary.
	other := graph.New()
	other.AddEdge("x", "likes", "y")
	other.Freeze()
	// Same label count, different names.
	renamed := graph.New()
	renamed.AddEdge("x", "a", "y")
	renamed.AddEdge("x", "b", "y")
	renamed.AddEdge("x", "c", "y")
	renamed.Freeze()
	return saveV3(t, orig), map[string]*graph.Graph{
		"different labels": other,
		"renamed labels":   renamed,
		"unfrozen graph":   graph.New(),
	}
}

func TestLoadRejectsWrongGraph(t *testing.T) {
	path, wrong := wrongGraphs(t)
	for name, g := range wrong {
		if _, err := Load(path, g); err == nil {
			t.Errorf("Load attached the index to a graph with %s", name)
		}
	}
}

// TestOpenStorageRejectsWrongGraph is the same check on the mapped open
// path, which attaches the file without decoding it.
func TestOpenStorageRejectsWrongGraph(t *testing.T) {
	path, wrong := wrongGraphs(t)
	for name, g := range wrong {
		if s, err := OpenStorage(path, g); err == nil {
			s.(*CompressedIndex).Close()
			t.Errorf("OpenStorage attached the index to a graph with %s", name)
		}
		if c, err := OpenCompressed(path, g); err == nil {
			c.Close()
			t.Errorf("OpenCompressed attached the index to a graph with %s", name)
		}
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
	dir := t.TempDir()
	load := func(data []byte) error {
		path := filepath.Join(dir, "corrupt.v3")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return mustNotPanic(t, "Load", func() error {
			_, err := Load(path, g)
			return err
		})
	}

	// Truncations at various points must all fail cleanly.
	for _, cut := range []int{0, 2, 4, 8, 20, len(full) / 2, len(full) - 1} {
		if load(full[:cut]) == nil {
			t.Errorf("truncation at %d not detected", cut)
		}
	}
	// Bad magic.
	bad := append([]byte(nil), full...)
	bad[0] = 'Z'
	if load(bad) == nil {
		t.Error("bad magic not detected")
	}
	// Bad version.
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if load(bad) == nil {
		t.Error("bad version not detected")
	}
}

// TestLoadDetectsV2 checks the retired-format message at the parser: a
// v2 file, full-length or cut short of a v3 header, is refused with its
// version named and the rebuild pointed at.
func TestLoadDetectsV2(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	g := randomGraph(r, 25, 70, 2)
	orig, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	v2 := buf.Bytes()
	binary.LittleEndian.PutUint32(v2[4:], 2)
	for _, data := range [][]byte{v2, v2[:12]} {
		path := filepath.Join(t.TempDir(), "ix.v2")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(path, g)
		if err == nil || !strings.Contains(err.Error(), "v2") || !strings.Contains(err.Error(), "rpq build") {
			t.Errorf("Load of a %d-byte v2 file: %v, want an error naming v2 and `rpq build`", len(data), err)
		}
	}
}

// TestV3SmallRuns exercises the block-boundary edge cases: single-pair
// runs, runs exactly at the block size, and runs one pair over it.
func TestV3SmallRuns(t *testing.T) {
	for _, pairs := range []int{1, 2, blockPairs - 1, blockPairs, blockPairs + 1, 2*blockPairs + 3} {
		g := graph.New()
		g.EnsureNodes(pairs + 1)
		lid := g.Label("a")
		for i := 0; i < pairs; i++ {
			g.AddEdgeID(graph.NodeID(i), lid, graph.NodeID(i+1))
		}
		g.Freeze()
		ix, err := Build(g, 1, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("%d pairs: %v", pairs, err)
		}
		c, err := parseImage(buf.Bytes(), g)
		if err != nil {
			t.Fatalf("%d pairs: %v", pairs, err)
		}
		assertSameIndex(t, g, ix, c)
		if err := c.VerifyBlocks(); err != nil {
			t.Errorf("%d pairs: VerifyBlocks: %v", pairs, err)
		}
	}
}

func TestCorruptV3(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	g := randomGraph(r, 20, 50, 2)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	le := binary.LittleEndian
	labelsOff := int(le.Uint64(full[48:]))
	dirOff := int(le.Uint64(full[64:]))
	dataOff := int(le.Uint64(full[80:]))
	recSize := recSize(ix.K())

	parse := func(data []byte) func() error {
		return func() error {
			_, err := parseImage(data, g)
			return err
		}
	}
	mutate := func(off int, val []byte) []byte {
		bad := append([]byte(nil), full...)
		copy(bad[off:], val)
		return bad
	}
	u64 := func(v uint64) []byte {
		var b [8]byte
		le.PutUint64(b[:], v)
		return b[:]
	}
	u32 := func(v uint32) []byte {
		var b [4]byte
		le.PutUint32(b[:], v)
		return b[:]
	}

	// Duplicate path: copy directory record 0's path fields over record
	// 1's (offsets and counts stay, so only the duplicate check fires).
	dupPath := append([]byte(nil), full...)
	copy(dupPath[dirOff+recSize+24:dirOff+2*recSize], dupPath[dirOff+24:dirOff+recSize])

	// The first run is a single block. Raising its pair count to a full
	// block in the directory, the block entry, and the header total keeps
	// every count consistent, but its payload holds far fewer than
	// count−1 deltas; accepted, it would size decode buffers from the lie.
	if le.Uint32(full[dirOff+24:]) != 1 {
		t.Fatal("fixture: first run is not a single block")
	}
	inflated := mutate(dirOff+16, u64(blockPairs))
	copy(inflated[dataOff+12:], u32(blockPairs))
	copy(inflated[32:], u64(uint64(ix.NumEntries())-le.Uint64(full[dirOff+16:])+blockPairs))

	cases := []struct {
		name string
		data []byte
	}{
		{"bad magic", mutate(0, []byte{'Z'})},
		{"unsupported version", mutate(4, u32(99))},
		{"v1 version on v3 layout", mutate(4, u32(1))},
		{"v2 version on v3 layout", mutate(4, u32(2))},
		{"v3 version on v4 layout", mutate(4, u32(3))},
		{"bad page size", mutate(12, u32(3))},
		{"k zero", mutate(16, u32(0))},
		{"k implausible", mutate(16, u32(1<<30))},
		{"label count mismatch", mutate(20, u32(uint32(g.NumLabels())+1))},
		{"path count mismatch", mutate(24, u32(uint32(ix.NumLabelPaths())+1))},
		{"entry count mismatch", mutate(32, u64(uint64(ix.NumEntries())+1))},
		{"labels offset out of bounds", mutate(48, u64(uint64(len(full))+1))},
		{"directory offset out of bounds", mutate(64, u64(uint64(len(full))+1))},
		{"directory length overflow", mutate(72, u64(^uint64(0)))},
		{"data offset misaligned", mutate(80, u64(uint64(dataOff)+4))},
		{"data length out of bounds", mutate(88, u64(^uint64(0)))},
		{"label table truncated", mutate(labelsOff, u32(1<<24))},
		{"run offset before data", mutate(dirOff, u64(0))},
		{"run offset aliases neighbour", mutate(dirOff+recSize, u64(le.Uint64(full[dirOff+recSize:])-8))},
		{"encoded length overflow", mutate(dirOff+8, u64(^uint64(0)))},
		{"encoded length below block dir", mutate(dirOff+8, u64(0))},
		{"pair count inflated", mutate(dirOff+16, u64(le.Uint64(full[dirOff+16:])+1))},
		{"block count inflated", mutate(dirOff+24, u32(le.Uint32(full[dirOff+24:])+1))},
		{"path length zero", mutate(dirOff+28, u32(0))},
		{"path length beyond k", mutate(dirOff+28, u32(uint32(ix.K())+1))},
		{"unknown step label", mutate(dirOff+32, u32(^uint32(0)))},
		{"duplicate path", dupPath},
		// Block-directory corruption inside the data section: the first
		// run's first block entry.
		{"block count zero", mutate(dataOff+12, u32(0))},
		{"block count beyond cap", mutate(dataOff+12, u32(blockPairs+1))},
		{"block payload offset out of range", mutate(dataOff+8, u32(^uint32(0)))},
		{"block count beyond payload", inflated},
	}
	for _, tc := range cases {
		if err := mustNotPanic(t, tc.name, parse(tc.data)); err == nil {
			t.Errorf("v3 %s: accepted", tc.name)
		}
	}

	// Truncation sweep: header, labels, directory, block directories,
	// varint payload.
	cuts := []int{0, 3, 4, 50, 95, labelsOff + 2, dirOff + 3, dirOff + recSize/2, dataOff - 1, dataOff + 5, len(full) - 8, len(full) - 1}
	for _, cut := range cuts {
		if cut < 0 || cut >= len(full) {
			continue
		}
		name := fmt.Sprintf("truncated at %d", cut)
		if err := mustNotPanic(t, name, parse(full[:cut])); err == nil {
			t.Errorf("v3 %s: accepted", name)
		}
	}

	// The same corruption classes must surface through the file-backed
	// entry points (OpenCompressed, OpenStorage), not just the parser.
	dir := t.TempDir()
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated file", full[:dataOff+5]},
		{"mutated header", mutate(32, u64(uint64(ix.NumEntries())+1))},
	} {
		path := filepath.Join(dir, "corrupt.v3")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		err := mustNotPanic(t, "OpenCompressed "+tc.name, func() error {
			c, err := OpenCompressed(path, g)
			if err == nil {
				c.Close()
			}
			return err
		})
		if err == nil {
			t.Errorf("OpenCompressed %s: accepted", tc.name)
		}
		err = mustNotPanic(t, "OpenStorage "+tc.name, func() error {
			s, err := OpenStorage(path, g)
			if err == nil {
				s.(*CompressedIndex).Close()
			}
			return err
		})
		if err == nil {
			t.Errorf("OpenStorage %s: accepted", tc.name)
		}
	}

	// Varint payload corruption. OpenCompressed leaves the payload to
	// each block's first read (open cost stays proportional to the block
	// directories), so these images parse — but VerifyBlocks, Load, and
	// plain scans must all fail or terminate cleanly, never panic or
	// fabricate pairs.
	firstRunBlocks := int(le.Uint32(full[dirOff+24:]))
	payloadOff := dataOff + firstRunBlocks*blockDirEntry
	payloadCases := []struct {
		name string
		data []byte
	}{
		// 0x00 delta: pairs are strictly ascending, so a zero delta is
		// always corrupt.
		{"zero delta", mutate(payloadOff, []byte{0x00})},
		// 0x80 starts a multi-byte varint; repeated to the end of the
		// first block's payload it never terminates.
		{"truncated varint", mutate(payloadOff, bytes.Repeat([]byte{0x80}, 4))},
		// A huge delta makes the remaining payload bytes trailing garbage
		// (or wraps past the block's pair budget).
		{"oversized delta", mutate(payloadOff, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})},
	}
	for _, tc := range payloadCases {
		c, err := parseImage(tc.data, g)
		if err != nil {
			// Also acceptable: some payload mutations are caught at parse
			// time via directory inconsistencies.
			continue
		}
		if err := mustNotPanic(t, "VerifyBlocks "+tc.name, c.VerifyBlocks); err == nil {
			t.Errorf("VerifyBlocks missed %s", tc.name)
		}
		if err := mustNotPanic(t, "Materialize "+tc.name, func() error {
			_, err := c.Materialize()
			return err
		}); err == nil {
			t.Errorf("Materialize accepted %s", tc.name)
		}
		// A trusted scan over the corrupt run must terminate cleanly.
		mustNotPanic(t, "scan "+tc.name, func() error {
			c.AllPaths(func(id uint32, p Path, count int) {
				bi := c.Blocks(p)
				for blk := bi.Next(); blk != nil; blk = bi.Next() {
				}
				for src := 0; src < g.NumNodes(); src++ {
					c.SrcRange(p, graph.NodeID(src))
					contains(c, p, graph.NodeID(src), graph.NodeID(src))
				}
			})
			return nil
		})
		// The always-verifying Load must reject the file.
		v3Path := filepath.Join(dir, "payload.v3")
		if err := os.WriteFile(v3Path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := mustNotPanic(t, "Load "+tc.name, func() error {
			_, err := Load(v3Path, g)
			return err
		}); err == nil {
			t.Errorf("Load accepted %s", tc.name)
		}
	}
}

// BenchmarkV3Decode measures block decode throughput: one full scan of
// every run of a compressed index via the block iterator.
func BenchmarkV3Decode(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	g := randomGraph(r, 2000, 60000, 2)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	c, err := parseImage(buf.Bytes(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * ix.NumEntries()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int
		c.AllPaths(func(id uint32, p Path, count int) {
			bi := c.Blocks(p)
			for blk := bi.Next(); blk != nil; blk = bi.Next() {
				total += len(blk)
			}
		})
		if total != ix.NumEntries() {
			b.Fatalf("scanned %d pairs, want %d", total, ix.NumEntries())
		}
	}
}
