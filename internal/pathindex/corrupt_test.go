package pathindex

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The corrupt-file tests assert one property of the index file reader:
// any truncated or mutated index file produces a descriptive error —
// never a panic, never a silently wrong index. Each case runs under a
// helper that turns panics into test failures so a regression reads as
// "loader panicked", not as a crashed test binary.

func mustNotPanic(t *testing.T, name string, fn func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: loader panicked: %v", name, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// readBack reads every run of c through a fresh cursor — by one SrcRun
// per source of the original run (the seek path), or by a full scan —
// and compares each read with orig's run. It returns the first cursor
// error, or else a description of the first read that differs.
func readBack(c *CompressedIndex, orig *Index, scan bool) (diff string, err error) {
	for pid, p := range c.paths {
		want := orig.Relation(p)
		if id, ok := orig.PathID(p); !ok || int(id) != pid || c.counts[pid] != len(want) {
			return fmt.Sprintf("path %d (%v) is not the original's", pid, p), nil
		}
		bi := c.Blocks(p)
		var got []Packed
		if scan {
			for blk := bi.Next(); blk != nil; blk = bi.Next() {
				got = append(got, blk...)
			}
		} else {
			for i := 0; i < len(want); i += srcEnd(want[i:], want[i].Src()) {
				got = append(got, bi.SrcRun(want[i].Src())...)
			}
		}
		if err := bi.Err(); err != nil {
			return "", err
		}
		if !slices.Equal(got, want) {
			return fmt.Sprintf("path %d reads %d pairs unlike the original's %d (scan %v)", pid, len(got), len(want), scan), nil
		}
	}
	return "", nil
}

// FuzzOpenV4 feeds arbitrary bytes to the parser, seeded with small
// built images. Whatever the input, parseImage returns an error or an
// index that reads — through seeks, scans and Materialize — either to
// an error wrapping ErrCorrupt or to exactly the relations of the index
// the seed was written from. It never panics.
func FuzzOpenV4(f *testing.F) {
	g := randomGraph(rand.New(rand.NewSource(55)), 12, 30, 2)
	origs := map[int]*Index{}
	for k := 1; k <= 2; k++ {
		ix, err := Build(g, k, BuildOptions{})
		if err != nil {
			f.Fatal(err)
		}
		origs[k] = ix
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseImage(data, g)
		if err != nil {
			return
		}
		orig := origs[c.K()]
		if orig == nil || c.NumLabelPaths() != orig.NumLabelPaths() || c.NumEntries() != orig.NumEntries() {
			t.Fatalf("an image of k=%d with %d paths and %d entries opened: not a seed's", c.K(), c.NumLabelPaths(), c.NumEntries())
		}
		for _, scan := range []bool{false, true} {
			if diff, err := readBack(c, orig, scan); diff != "" {
				t.Fatal(diff)
			} else if err != nil && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("read error %v does not wrap ErrCorrupt", err)
			}
		}
		if m, err := c.Materialize(); err == nil {
			assertSameIndex(t, g, orig, m)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Materialize error %v does not wrap ErrCorrupt", err)
		}
	})
}

// TestFlipSweep flips every bit of a built image — header, label table,
// directories, block directories, deltas, restart trailers and padding
// — one at a time. Every flip must be refused at open with a typed
// error, or fail with ErrCorrupt at the first seek or scan that reads
// the block it lies in; none may read as a different relation, and
// since every byte of the image is checked, none may read as the same
// one either.
func TestFlipSweep(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(71)), 16, 60, 2)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	restarts := false
	ix.AllPaths(func(_ uint32, _ Path, count int) { restarts = restarts || count > restartEvery })
	if !restarts {
		t.Fatalf("fixture: no run spans a restart point")
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	image := buf.Bytes()
	atOpen, atRead := 0, 0
	bad := slices.Clone(image)
	for bit := 0; bit < 8*len(image); bit++ {
		i, m := bit/8, byte(1)<<(bit%8)
		bad[i] ^= m
		if c, err := parseImage(bad, g); err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormatVersion) {
				t.Fatalf("bit %d: open error %v is untyped", bit, err)
			}
			atOpen++
		} else {
			// The seek path and the scan path each meet the flip on their
			// own: each reads with every block unchecked, as after open.
			for _, scan := range []bool{false, true} {
				for i := range c.checked {
					c.checked[i].Store(0)
				}
				switch diff, err := readBack(c, ix, scan); {
				case diff != "":
					t.Fatalf("bit %d: %s", bit, diff)
				case err == nil:
					t.Fatalf("bit %d (byte %d of %d) reads as the original relation (scan %v): a byte is unchecked", bit, i, len(image), scan)
				case !errors.Is(err, ErrCorrupt):
					t.Fatalf("bit %d: read error %v does not wrap ErrCorrupt", bit, err)
				}
			}
			atRead++
		}
		bad[i] ^= m
	}
	t.Logf("%d bytes, %d flips: %d refused at open, %d at the first seek and the first scan of their block, 0 read unchanged, 0 read differently",
		len(image), 8*len(image), atOpen, atRead)
}

// corruptImage writes ix and flips the first payload bit of every run
// of length 2 (a length-1 run's last block is checked at open), then
// opens the image. It returns the index and the flipped paths.
func corruptImage(t *testing.T, ix *Index) (*CompressedIndex, []Path) {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := parseImage(buf.Bytes(), ix.g)
	if err != nil {
		t.Fatal(err)
	}
	var flipped []Path
	for pid, p := range c.paths {
		if r := &c.runs[pid]; len(p) == 2 && r.tails[0] > 0 {
			r.payload[0] ^= 1
			flipped = append(flipped, p)
		}
	}
	return c, flipped
}

// TestCorruptBlockThroughComposites: a corrupt block of a file base
// fails every read over it with ErrCorrupt — through the file's own
// cursor, a tier stack's merge and a sharded router over file shards,
// by scan and by SrcRun — and so do a delta build whose lookups read
// it and a fold of a stack over it.
func TestCorruptBlockThroughComposites(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	base, _, batch := extendRandom(r, 30, 120, []string{"a", "b"}, 0.2)
	ix, err := Build(base, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	file, flipped := corruptImage(t, ix)
	if len(flipped) == 0 {
		t.Fatal("fixture: no length-2 run has a payload")
	}
	g2, err := base.ExtendFrozen(batch)
	if err != nil {
		t.Fatal(err)
	}
	d, err := BuildDelta(ix, g2)
	if err != nil {
		t.Fatal(err)
	}
	levels, err := PushTier(file, NewTier(d, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	part := NewHashPartitioner(2)
	heapShards, err := ShardIndex(ix, part)
	if err != nil {
		t.Fatal(err)
	}
	var shards []Storage
	for i := range part.NumShards() {
		s, _ := corruptImage(t, heapShards.Shard(i).(*Index))
		shards = append(shards, s)
	}
	sharded, err := NewSharded(shards, part)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Storage{"file": file, "levels": levels, "sharded": sharded} {
		for _, p := range flipped {
			bi := s.Blocks(p)
			for blk := bi.Next(); blk != nil; blk = bi.Next() {
			}
			if err := bi.Err(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: scan of %v: Err() = %v, want ErrCorrupt", name, p, err)
			}
			first := ix.Relation(p)[0]
			bi = s.Blocks(p)
			bi.SrcRun(first.Src())
			if err := bi.Err(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s: SrcRun of %v: Err() = %v, want ErrCorrupt", name, p, err)
			}
		}
	}
	if _, err := BuildDelta(file, g2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("BuildDelta over the corrupt file: %v, want ErrCorrupt", err)
	}
	if folded, err := levels.Compacted(); folded != nil || !errors.Is(err, ErrCorrupt) {
		t.Errorf("folding a stack over the corrupt file: %T, %v, want ErrCorrupt", folded, err)
	}
}
