package pathdb_test

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	pathdb "repro"
	"repro/internal/pathindex"
)

// TestIndexFlipsFailQueries flips one bit of every byte of a small
// saved index file, the zero padding before its label table and its
// data section aside, and serves each image through pathdb.Open and the
// query API. (pathindex's TestFlipSweep flips every bit of an image,
// padding included, against the storage's cursors.) Each flip must be
// refused at Open with a typed error, or fail with ErrCorrupt the
// queries that read the block it lies in; a query that succeeds must
// give the intact file's answer. No flip may go unnoticed.
func TestIndexFlipsFailQueries(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(5))
	var lines []string
	for range 110 {
		lines = append(lines, fmt.Sprintf("n%d a n%d", r.Intn(24), r.Intn(24)))
	}
	graphPath := filepath.Join(dir, "graph.txt")
	if err := os.WriteFile(graphPath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	built, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(dir, "index.pix")
	if err := built.SaveIndexV3(indexPath); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"a", "a^-", "a/a", "a/a^-", "a^-/a", "a^-/a^-"}
	sources := []string{"n0", "n7", "n13"}
	type answers struct {
		pairs [][]pathdb.Pair
		from  [][]string
	}
	// ask runs every query and returns the first error.
	ask := func(db *pathdb.DB) (answers, error) {
		var a answers
		for _, q := range queries {
			res, err := db.Query(q)
			if err != nil {
				return a, fmt.Errorf("%s: %w", q, err)
			}
			pairs := slices.Clone(res.Pairs)
			slices.SortFunc(pairs, func(x, y pathdb.Pair) int {
				return cmp.Or(cmp.Compare(x.Src, y.Src), cmp.Compare(x.Dst, y.Dst))
			})
			a.pairs = append(a.pairs, pairs)
			for _, src := range sources {
				names, err := db.QueryFrom(q, src)
				if err != nil {
					return a, fmt.Errorf("%s from %s: %w", q, src, err)
				}
				slices.Sort(names)
				a.from = append(a.from, names)
			}
		}
		return a, nil
	}
	want, err := ask(built)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.pairs[2]) <= 128 {
		t.Fatalf("fixture: a/a holds %d pairs, too few for a restart point", len(want.pairs[2]))
	}

	le := binary.LittleEndian
	labelsOff := int(le.Uint64(image[48:]))
	dirEnd, dataOff := int(le.Uint64(image[64:])+le.Uint64(image[72:])), int(le.Uint64(image[80:]))
	bad := filepath.Join(dir, "bad.pix")
	atOpen, atQuery := 0, 0
	for i := 0; i < len(image); i++ {
		if i == 96 {
			i = labelsOff
		}
		if i == dirEnd {
			i = dataOff
		}
		bit := 8*i + i%8
		m := byte(1) << (i % 8)
		image[i] ^= m
		if err := os.WriteFile(bad, image, 0o644); err != nil {
			t.Fatal(err)
		}
		image[i] ^= m
		db, err := pathdb.Open(graphPath, bad)
		if err != nil {
			if !errors.Is(err, pathdb.ErrCorrupt) && !errors.Is(err, pathindex.ErrFormatVersion) {
				t.Fatalf("byte %d bit %d: Open error %v is untyped", i, bit%8, err)
			}
			atOpen++
			continue
		}
		got, err := ask(db)
		db.Close()
		switch {
		case err == nil:
			t.Fatalf("byte %d bit %d: every query answered", i, bit%8)
		case !errors.Is(err, pathdb.ErrCorrupt):
			t.Fatalf("byte %d bit %d: query error %v does not wrap ErrCorrupt", i, bit%8, err)
		}
		for q, pairs := range got.pairs {
			if !slices.Equal(pairs, want.pairs[q]) {
				t.Fatalf("byte %d bit %d: %s answered %d pairs, want %d", i, bit%8, queries[q], len(pairs), len(want.pairs[q]))
			}
		}
		for j, names := range got.from {
			if !slices.Equal(names, want.from[j]) {
				t.Fatalf("byte %d bit %d: %s from %s answered differently", i, bit%8, queries[j/len(sources)], sources[j%len(sources)])
			}
		}
		atQuery++
	}
	t.Logf("%d flips: %d refused at Open, %d by a query", atOpen+atQuery, atOpen, atQuery)
}

// flipPayloadBits flips the first payload bit of up to n runs, of path
// length minLen or more, in the index file at path (every file of a
// sharded directory but its manifest), and returns how many it flipped.
func flipPayloadBits(t *testing.T, path string, minLen, n int) int {
	t.Helper()
	files := []string{path}
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		ents, err := os.ReadDir(path)
		if err != nil {
			t.Fatal(err)
		}
		files = files[:0]
		for _, e := range ents {
			if e.Name() != "SHARDS.json" {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	flipped := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		le := binary.LittleEndian
		k, paths := int(le.Uint32(data[16:])), int(le.Uint32(data[24:]))
		dirOff, recSize := int(le.Uint64(data[64:])), (32+4*k+7)&^7
		for i := 0; i < paths && flipped < n; i++ {
			rec := data[dirOff+i*recSize:]
			runOff, encLen := int(le.Uint64(rec[0:])), int(le.Uint64(rec[8:]))
			payload := runOff + 20*int(le.Uint32(rec[24:]))
			if int(le.Uint32(rec[28:])) >= minLen && payload < runOff+encLen {
				data[payload] ^= 1
				flipped++
			}
		}
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return flipped
}

// TestDurableCorruptSpillReplays flips one payload bit of each spill
// file, which passes every length and structure check: the block's CRC
// refuses the spill, and recovery replays its batches from the WAL
// instead, so every acknowledged batch is back with the oracle's answers.
func TestDurableCorruptSpillReplays(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 29
		dir := t.TempDir()
		batches := durableBatches(seed, 4, 30)
		db := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: 1})
		for _, b := range batches {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		spills, err := filepath.Glob(filepath.Join(dir, "spill-*.pix"))
		if err != nil || len(spills) == 0 {
			t.Fatalf("no spill files (%v)", err)
		}
		for _, p := range spills {
			if flipPayloadBits(t, p, 1, 1) != 1 {
				t.Fatalf("%s: no run with a payload to flip", p)
			}
		}
		db2 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		defer db2.Close()
		if st := db2.DurabilityStats(); st.RecoveredSpills != 0 || st.RecoveredBatches != int64(len(batches)) {
			t.Fatalf("corrupt spills were not replayed: %+v", st)
		}
		checkAllStrategies(t, db2, prefixOracle(t, seed, batches, len(batches)), "replay past corrupt spills")
	})
}

// TestDurableCorruptCheckpointFailsQueries flips a payload bit of every
// length-2 run of a checkpoint index. The metadata is intact, so the
// recovery opens; every query that reads a flipped block then fails
// with ErrCorrupt, every other query answers as the oracle does, and an
// update or the compaction after it fails with ErrCorrupt too.
func TestDurableCorruptCheckpointFailsQueries(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 31
		dir := t.TempDir()
		batches := durableBatches(seed, 3, 25)
		db := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		for _, b := range batches {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		pix, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pix"))
		if err != nil || len(pix) != 1 {
			t.Fatalf("checkpoint indexes: %v (%v), want one", pix, err)
		}
		if flipPayloadBits(t, pix[0], 2, 1<<30) == 0 {
			t.Fatal("no length-2 run with a payload to flip")
		}
		db2 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		defer db2.Close()
		if st := db2.DurabilityStats(); st.CheckpointSeq == 0 {
			t.Fatalf("recovery ignored the checkpoint: %+v", st)
		}
		oracle := prefixOracle(t, seed, batches, len(batches))
		failed := 0
		for _, q := range durableQueries {
			for _, s := range pathdb.Strategies() {
				got, err := db2.QueryWith(q, s)
				if errors.Is(err, pathdb.ErrCorrupt) {
					failed++
					continue
				}
				if err != nil {
					t.Fatalf("%q under %v: %v", q, s, err)
				}
				want, err := oracle.QueryWith(q, s)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(sortedNames(got.Names), sortedNames(want.Names)) {
					t.Fatalf("%q under %v: %d pairs over the corrupt checkpoint, oracle %d", q, s, len(got.Names), len(want.Names))
				}
			}
		}
		if failed == 0 {
			t.Fatal("no query read a flipped block")
		}
		// An update reads the base through the same cursors, and a
		// compaction folds every base run: one of them meets a flipped
		// block, and neither writes a base without its pairs.
		err = db2.ApplyBatch(durableBatches(seed+1, 1, 25)[0])
		if err == nil {
			err = db2.Compact()
		}
		if !errors.Is(err, pathdb.ErrCorrupt) {
			t.Fatalf("update and compaction over the corrupt checkpoint: %v, want ErrCorrupt", err)
		}
	})
}
