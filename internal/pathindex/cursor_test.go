package pathindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
)

// contains reports whether (src,dst) ∈ p(s): the paper's full-key
// ⟨p, a, b⟩ lookup as a Seek and one Next.
func contains(s Storage, p Path, src, dst graph.NodeID) bool {
	key := Pack(src, dst)
	bi := s.Blocks(p).Sized(1)
	bi.Seek(key)
	blk := bi.Next()
	return len(blk) > 0 && blk[0] == key
}

// lowerBound is the oracle cursor: the offset of the first pair ≥ key.
func lowerBound(run []Packed, key Packed) int {
	i, _ := slices.BinarySearch(run, key)
	return i
}

// cursorKey picks a seek key for a cursor at pos over run from two
// bytes: a pair of the run or a neighbour of one, the previous key
// again, a key just ahead of or behind the cursor, a key before the
// first pair or past the last, or one with source ^0.
func cursorKey(sel, arg byte, run []Packed, pos int, last Packed) Packed {
	n := len(run)
	at := func(i int) Packed {
		if n == 0 {
			return Packed(arg)
		}
		return run[min(max(i, 0), n-1)]
	}
	pick := at(int(arg) * n / 256)
	switch sel % 9 {
	case 0:
		return pick
	case 1:
		if pick < ^Packed(0) {
			return pick + 1
		}
		return pick
	case 2:
		if pick > 0 {
			return pick - 1
		}
		return pick
	case 3:
		return last
	case 4:
		return at(pos + int(arg%8))
	case 5:
		return at(pos - 1 - int(arg%8))
	case 6:
		if arg%2 == 0 || n == 0 || run[0] == 0 {
			return 0
		}
		return run[0] - 1
	case 7:
		if k := at(n - 1); n > 0 && k < ^Packed(0) {
			return k + 1
		}
		return ^Packed(0)
	default:
		return Pack(^graph.NodeID(0), graph.NodeID(arg))
	}
}

// driveCursor runs one cursor over run through ops, two bytes a call:
// the first picks Next, Seek or SrcRun and the key (see cursorKey), the
// second its argument. Every block, sub-run and position is checked
// against a binary search over run; size is the cursor's block size.
// It returns a description of the first mismatch, or "".
func driveCursor(bi *BlockIterator, run []Packed, size int, ops []byte) string {
	pos := 0
	var last Packed
	for i := 0; i+1 < len(ops); i += 2 {
		sel, arg := ops[i], ops[i+1]
		key := cursorKey(sel>>2, arg, run, pos, last)
		switch sel % 4 {
		case 0, 1:
			blk := bi.Next()
			if pos == len(run) {
				if blk != nil {
					return fmt.Sprintf("op %d: Next past the end returned %d pairs", i/2, len(blk))
				}
				continue
			}
			if len(blk) == 0 || len(blk) > size || pos+len(blk) > len(run) || !slices.Equal(blk, run[pos:pos+len(blk)]) {
				return fmt.Sprintf("op %d: Next at %d returned %d pairs (size %d), not the run's next", i/2, pos, len(blk), size)
			}
			pos += len(blk)
		case 2:
			bi.Seek(key)
			pos, last = lowerBound(run, key), key
		case 3:
			src := key.Src()
			lo, hi := lowerBound(run, Pack(src, 0)), len(run)
			if src < ^graph.NodeID(0) {
				hi = lowerBound(run, Pack(src+1, 0))
			}
			if got := bi.SrcRun(src); !slices.Equal(got, run[lo:hi]) {
				return fmt.Sprintf("op %d: SrcRun(%d) returned %d pairs, want %d", i/2, src, len(got), hi-lo)
			}
			pos, last = hi, Pack(src, 0)
		}
	}
	// The rest of the run must follow wherever the sequence left off.
	for blk := bi.Next(); blk != nil; blk = bi.Next() {
		if len(blk) > size || pos+len(blk) > len(run) || !slices.Equal(blk, run[pos:pos+len(blk)]) {
			return fmt.Sprintf("drain: Next at %d returned %d pairs, not the run's next", pos, len(blk))
		}
		pos += len(blk)
	}
	if pos != len(run) {
		return fmt.Sprintf("drain stopped at %d of %d pairs", pos, len(run))
	}
	return ""
}

// checkCursor drives fresh cursors from open through random Seek,
// SrcRun and Next sequences at block sizes 1, 7 and the default,
// against want, the run they read.
func checkCursor(t *testing.T, name string, open func() *BlockIterator, want []Packed, r *rand.Rand) {
	t.Helper()
	ops := make([]byte, 96)
	for _, size := range []int{1, 7, DefaultBlockSize} {
		r.Read(ops)
		if msg := driveCursor(open().Sized(size), want, size, ops); msg != "" {
			t.Fatalf("%s, size %d: %s (ops %x)", name, size, msg, ops)
		}
	}
}

// TestCursorMatchesOracle checks the cursor of every representation
// against the oracle: a heap index, the same index as a v3 file whose
// runs span several blocks, four heap shards and four v3 shards of it,
// and a tier stack over each of those.
func TestCursorMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	base, full, batch := extendRandom(r, 150, 600, []string{"a", "b"}, 0.05)
	const k = 3
	ix, err := Build(base, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Build(full, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ix.Save(filepath.Join(dir, "base.pix")); err != nil {
		t.Fatal(err)
	}
	v3, err := OpenCompressed(filepath.Join(dir, "base.pix"), base)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	multi := false
	v3.AllPaths(func(id uint32, _ Path, _ int) { multi = multi || len(v3.runs[id].firsts) > 1 })
	if !multi {
		t.Fatal("no v3 run spans more than one block")
	}
	heapShards, err := ShardIndex(ix, NewHashPartitioner(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := heapShards.SaveSharded(filepath.Join(dir, "shards")); err != nil {
		t.Fatal(err)
	}
	v3Shards, err := OpenSharded(filepath.Join(dir, "shards"), base)
	if err != nil {
		t.Fatal(err)
	}
	defer v3Shards.Close()
	for _, tc := range []struct {
		name string
		s    dirStorage
	}{{"heap", ix}, {"v3", v3}, {"shard4", heapShards}, {"shard4-v3", v3Shards}} {
		t.Run(tc.name, func(t *testing.T) {
			checkStorageEqual(t, tc.s, ix)
			checkStorageEqual(t, pushChunks(t, tc.s, batch, 3), oracle)
		})
	}
}

// TestSrcRunDecodesOnlyItsBlocks: over a v3 run, ascending lookups in
// one block decode it once, a lookup below the cursor decodes it again,
// and a sub-run ending at a block boundary does not decode the next
// block.
func TestSrcRunDecodesOnlyItsBlocks(t *testing.T) {
	g := graph.New()
	g.EnsureNodes(1)
	a := g.Label("a")
	g.Freeze()
	// Four blocks: source 7's pairs end exactly at the first boundary,
	// source 9's fill the next two blocks, and source 12 has the last.
	var run []Packed
	for i := 0; i < blockPairs; i++ {
		run = append(run, Pack(graph.NodeID(3+i/(blockPairs-10)*4), graph.NodeID(i)))
	}
	for i := 0; i < 2*blockPairs; i++ {
		run = append(run, Pack(9, graph.NodeID(i)))
	}
	run = append(run, Pack(12, 0))
	p := Path{graph.Fwd(a), graph.Fwd(a)}
	ix := newIndex(g, 2)
	ix.addRun(p, run)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := parseImage(buf.Bytes(), g)
	if err != nil {
		t.Fatal(err)
	}
	decoded := func(f func()) int64 {
		before, _ := c.DecodeStats()
		f()
		after, _ := c.DecodeStats()
		return after - before
	}
	bi := c.Blocks(p)
	if n := decoded(func() {
		if got := bi.SrcRun(7); len(got) != 10 {
			t.Errorf("SrcRun(7) = %d pairs, want 10", len(got))
		}
	}); n != 1 {
		t.Errorf("a sub-run ending at a block boundary decoded %d blocks, want 1", n)
	}
	if n := decoded(func() {
		bi.SrcRun(3)
		bi.Seek(Pack(3, 5))
		bi.Seek(Pack(3, 900))
		bi.SrcRun(7)
		bi.Seek(Pack(7, 0))
	}); n != 1 {
		t.Errorf("a lookup below the cursor, then ascending ones in its block, decoded %d blocks, want 1", n)
	}
	if n := decoded(func() {
		if got := bi.SrcRun(9); len(got) != 2*blockPairs {
			t.Errorf("SrcRun(9) = %d pairs, want %d", len(got), 2*blockPairs)
		}
	}); n != 2 {
		t.Errorf("a sub-run over blocks 1 and 2 decoded %d blocks, want 2", n)
	}
}

// FuzzSeek drives a cursor over a fuzzed sorted run, held both on the
// heap and written as an index file, through a fuzzed sequence of Seek,
// SrcRun and Next calls; both must match a binary search over the run.
func FuzzSeek(f *testing.F) {
	f.Add(int64(1), uint16(10), uint8(3), uint8(0), []byte{8, 0, 0, 0, 10, 200, 12, 7, 15, 1})
	f.Add(int64(2), uint16(9000), uint8(12), uint8(2), []byte{2, 128, 0, 0, 6, 10, 14, 3, 22, 5, 30, 9, 31, 255})
	f.Add(int64(3), uint16(5000), uint8(40), uint8(1), []byte{34, 0, 3, 77, 18, 200, 26, 1, 2, 0})
	f.Add(int64(31), uint16(0), uint8(3), uint8(92), []byte("70")) // an empty run
	// Seeks and SrcRuns on, just after and just before every restart
	// point, each checked by a Next, in one block of restartEvery−1,
	// restartEvery, restartEvery+1 and blockPairs pairs; small gaps keep
	// a source's pairs together, large ones change source at every pair.
	for _, n := range []int{restartEvery - 1, restartEvery, restartEvery + 1, blockPairs} {
		var ops []byte
		for j := restartEvery - 1; j < n; j++ {
			if j%restartEvery > 1 && j%restartEvery < restartEvery-1 {
				continue
			}
			arg := (256*j + n - 1) / n // the least arg with arg·n/256 ≥ j
			if arg > 255 || arg*n/256 != j {
				continue
			}
			for _, key := range []byte{0, 1, 2} { // on, after, before the pair
				ops = append(ops, key<<2|2, byte(arg), 0, 0, key<<2|3, byte(arg), 0, 0)
			}
		}
		for _, gapBits := range []uint8{2, 40} {
			f.Add(int64(n), uint16(n), gapBits, uint8(2), ops)
		}
	}
	g := graph.New()
	g.EnsureNodes(1)
	g.Label("a")
	g.Freeze()
	p := Path{graph.Fwd(0), graph.Fwd(0)} // length 2: no node-range check at open
	f.Fuzz(func(t *testing.T, seed int64, n uint16, gapBits, sizeSel uint8, ops []byte) {
		r := rand.New(rand.NewSource(seed))
		run := make([]Packed, 0, n)
		v := r.Uint64() >> (r.Intn(64) + 1)
		for range n {
			run = append(run, Packed(v))
			gap := 1 + r.Uint64()>>(64-uint(gapBits)%64)
			if v+gap < v {
				break
			}
			v += gap
		}
		ix := newIndex(g, 2)
		ix.addRun(p, run)
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		c, err := parseImage(buf.Bytes(), g)
		if err != nil {
			t.Fatal(err)
		}
		size := []int{1, 7, DefaultBlockSize}[sizeSel%3]
		for _, s := range []Storage{ix, c} {
			if msg := driveCursor(s.Blocks(p).Sized(size), run, size, ops); msg != "" {
				t.Fatalf("%T: %s", s, msg)
			}
		}
	})
}
