package pathindex

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
)

func TestPartitionerContract(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		part := NewHashPartitioner(n)
		if part.NumShards() != n {
			t.Fatalf("NumShards = %d, want %d", part.NumShards(), n)
		}
		hit := make([]bool, n)
		for src := graph.NodeID(0); src < 500; src++ {
			s := part.ShardOf(src)
			if s < 0 || s >= n {
				t.Fatalf("ShardOf(%d) = %d out of [0,%d)", src, s, n)
			}
			if s != part.ShardOf(src) {
				t.Fatalf("ShardOf(%d) not deterministic", src)
			}
			hit[s] = true
		}
		for s, ok := range hit {
			if !ok {
				t.Errorf("n=%d: shard %d owns no source in [0,500)", n, s)
			}
		}
	}
}

// shardedStorage is a Storage that also offers the shard view: a
// *ShardedStorage, or a *Levels over one.
type shardedStorage interface {
	Storage
	Sharded
}

// checkShardViews asserts the shard-view contract: every pair of shard
// i's view is owned by shard i (so the views are pairwise
// source-disjoint), every view serves the whole storage's graph, and the
// k-way union of the views is both the storage's own global relation and
// the unsharded oracle's.
func checkShardViews(t *testing.T, s shardedStorage, oracle *Index) {
	t.Helper()
	part := s.Partitioner()
	n := part.NumShards()
	oracle.AllPaths(func(_ uint32, p Path, _ int) {
		var runs [][]Packed
		for i := 0; i < n; i++ {
			view := s.Shard(i)
			if view.Graph() != s.Graph() {
				t.Fatalf("shard %d serves another graph than the storage", i)
			}
			run := view.Relation(p)
			for _, pr := range run {
				if owner := part.ShardOf(pr.Src()); owner != i {
					t.Fatalf("shard %d holds %v owned by shard %d", i, pr, owner)
				}
			}
			var viaBlocks []Packed
			bi := view.Blocks(p)
			for blk := bi.Next(); blk != nil; blk = bi.Next() {
				viaBlocks = append(viaBlocks, blk...)
			}
			if !slices.Equal(viaBlocks, run) {
				t.Fatalf("shard %d: Blocks(%v) differs from Relation", i, p)
			}
			if len(run) > 0 {
				runs = append(runs, run)
			}
		}
		union := kwayMergeRuns(runs)
		if !slices.Equal(union, s.Relation(p)) {
			t.Fatalf("n=%d: shard views of %v do not reassemble the global relation", n, p)
		}
		if !slices.Equal(union, oracle.Relation(p)) {
			t.Fatalf("n=%d: shard views of %v do not reassemble the oracle relation", n, p)
		}
	})
}

func TestBuildShardedMatchesFull(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	_, full, _ := extendRandom(r, 40, 120, []string{"a", "b", "c"}, 0)
	for _, k := range []int{1, 2} {
		oracle, err := Build(full, k, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4, 7} {
			part := NewHashPartitioner(n)
			s, err := BuildSharded(full, k, BuildOptions{}, part)
			if err != nil {
				t.Fatal(err)
			}
			checkStorageEqual(t, s, oracle)
			if s.PathsKCount() != oracle.PathsKCount() {
				t.Errorf("k=%d n=%d: PathsKCount = %d, oracle %d", k, n, s.PathsKCount(), oracle.PathsKCount())
			}
			if s.NumShards() != n {
				t.Fatalf("NumShards = %d, want %d", s.NumShards(), n)
			}
			checkShardViews(t, s, oracle)
		}
	}
}

func TestShardedSaveOpenRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	_, full, _ := extendRandom(r, 30, 90, []string{"a", "b"}, 0)
	oracle, err := Build(full, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	part := NewHashPartitioner(3)
	s, err := BuildSharded(full, 2, BuildOptions{}, part)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "sharded.pixd")
	if err := s.SaveSharded(dir); err != nil {
		t.Fatal(err)
	}
	if !IsShardedPath(dir) {
		t.Fatalf("IsShardedPath(%s) = false after SaveSharded", dir)
	}
	if IsShardedPath(filepath.Dir(dir)) {
		t.Fatal("IsShardedPath true for a directory without a manifest")
	}
	got, err := OpenSharded(dir, full)
	if err != nil {
		t.Fatal(err)
	}
	checkStorageEqual(t, got, oracle)
	if got.PathsKCount() != oracle.PathsKCount() {
		t.Errorf("PathsKCount = %d, oracle %d", got.PathsKCount(), oracle.PathsKCount())
	}
	if got.NumShards() != 3 {
		t.Fatalf("NumShards = %d after reopen", got.NumShards())
	}
	if got.FileBytes() == 0 {
		t.Error("FileBytes = 0 for file-backed shards")
	}
	if got.Partitioner() != part {
		t.Fatalf("partitioner came back as %v, saved %v", got.Partitioner(), part)
	}
	if err := got.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedPinDrain is the close-under-query test: Pin must fail with
// ErrClosed after Close, a held pin must block Close until released, and
// a failed Pin must leave no pins behind (unwinding the already-pinned
// prefix).
func TestShardedPinDrain(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	_, full, _ := extendRandom(r, 20, 60, []string{"a"}, 0)
	build := func() *ShardedStorage {
		s, err := BuildSharded(full, 2, BuildOptions{}, NewHashPartitioner(3))
		if err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(t.TempDir(), "pixd")
		if err := s.SaveSharded(dir); err != nil {
			t.Fatal(err)
		}
		got, err := OpenSharded(dir, full)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}

	// Close drains an active reader before unmapping.
	s := build()
	if err := s.Pin(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a pin was held", err)
	default:
	}
	p0 := s.PathByID(0)
	if len(s.Relation(p0)) == 0 {
		t.Fatal("pinned read returned nothing")
	}
	s.Unpin()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := s.Pin(); err != ErrClosed {
		t.Fatalf("Pin after Close = %v, want ErrClosed", err)
	}

	// A failed Pin leaves no pins held: close one shard out from under
	// the storage, then Pin must fail and every still-open shard must be
	// closable without blocking (no leaked pin).
	s = build()
	if c, ok := s.Shard(1).(interface{ Close() error }); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Pin(); err != ErrClosed {
		t.Fatalf("Pin with a closed shard = %v, want ErrClosed", err)
	}
	done := make(chan error)
	go func() { done <- s.Close() }()
	if err := <-done; err != nil {
		t.Fatalf("Close after failed Pin blocked or errored: %v", err)
	}
}

// TestLevelsOverShardedBase is the shard-view property test: for random
// graphs × batches × partitioners, a tier stack over a sharded base
// answers like a rebuild, its Shard(i) views keep the shard-view
// contract (checkShardViews), and both hold before and after tier
// merges, a spill reload, and a fold — which must hand back a sharded
// base under the same partitioning.
func TestLevelsOverShardedBase(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		base, full, batch := extendRandom(r, 30, 80, []string{"a", "b"}, 0.2)
		oracle, err := Build(full, 2, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			part := NewHashPartitioner(n)
			s, err := BuildSharded(base, 2, BuildOptions{}, part)
			if err != nil {
				t.Fatal(err)
			}
			const chunks = 3
			ls := pushChunks(t, s, batch, chunks)
			check := func(stage string, ls *Levels) {
				t.Helper()
				if ls.Partitioner() != part {
					t.Fatalf("%s: stack is partitioned by %v, its base by %v", stage, ls.Partitioner(), part)
				}
				checkStorageEqual(t, ls, oracle)
				checkShardViews(t, ls, oracle)
				// One global stack: every shard view is exactly as deep.
				for i := 0; i < n; i++ {
					if got := len(ls.Shard(i).(*Levels).Tiers()); got != len(ls.Tiers()) {
						t.Fatalf("%s: shard %d view has %d tiers, the stack %d", stage, i, got, len(ls.Tiers()))
					}
				}
			}
			// A push never folds: three batches are three tiers, over
			// the original sharded base.
			if len(ls.Tiers()) != chunks || ls.Base() != Storage(s) {
				t.Fatalf("n=%d: %d tiers after %d pushes", n, len(ls.Tiers()), chunks)
			}
			check("pushed", ls)
			entries := 0
			for _, tier := range ls.Tiers() {
				entries += tier.Entries()
			}
			if ls.DeltaEntries() != entries || ls.BaseEntries() != s.NumEntries() {
				t.Errorf("DeltaEntries/BaseEntries = %d/%d, tiers hold %d over a base of %d", ls.DeltaEntries(), ls.BaseEntries(), entries, s.NumEntries())
			}

			for merged, ok := ls.MergeOnce(); ok; merged, ok = ls.MergeOnce() {
				ls = merged
				check("merged", ls)
			}
			if len(ls.Tiers()) != 1 {
				t.Fatalf("merging stopped at %d tiers", len(ls.Tiers()))
			}

			// Spill the merged tier, reload it, and restack it.
			path := filepath.Join(t.TempDir(), "spill.pix")
			if err := ls.Tiers()[0].WriteSpill(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := Load(path, ls.Graph())
			if err != nil {
				t.Fatal(err)
			}
			reloaded, err := NewLevels(s, []*Tier{NewSpilledTier(loaded, 1, chunks, "spill.pix")})
			if err != nil {
				t.Fatal(err)
			}
			check("spill reloaded", reloaded)

			// The fold re-partitions: a sharded base comes back sharded.
			fs := compacted(t, reloaded)
			folded, ok := fs.(*ShardedStorage)
			if !ok {
				t.Fatalf("fold of a stack over a sharded base returned %T", fs)
			}
			if folded.NumShards() != n || folded.Partitioner() != part || folded.Graph() != ls.Graph() {
				t.Fatalf("fold changed the layout: %d shards under %v", folded.NumShards(), folded.Partitioner())
			}
			checkStorageEqual(t, folded, oracle)
			checkShardViews(t, folded, oracle)
			// And any of them merges back into one unsharded index.
			mat, err := Materialize(reloaded)
			if err != nil {
				t.Fatal(err)
			}
			checkStorageEqual(t, mat, oracle)
		}
	}
}

// TestOpenShardedUntrustedManifest: a manifest naming files SaveSharded
// never writes — a path outside the directory, one shard twice — or
// disagreeing with its shards' k, or carrying a negative |paths_k|, is
// refused with an error wrapping errBadManifest, even though every file
// it names opens.
func TestOpenShardedUntrustedManifest(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	_, g, _ := extendRandom(r, 30, 90, []string{"a", "b"}, 0)
	s, err := BuildSharded(g, 2, BuildOptions{}, NewHashPartitioner(3))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		damage func(m *shardManifest)
	}{
		{"file outside the directory", func(m *shardManifest) { m.Files[1] = "../" + shardFileName(1) }},
		{"one file for two shards", func(m *shardManifest) { m.Files[1] = m.Files[0] }},
		{"k disagrees with the shards", func(m *shardManifest) { m.K = 3 }},
		{"negative paths_k_count", func(m *shardManifest) { m.PathsKCount = -1 }},
		{"range partitioner", func(m *shardManifest) { m.Partitioner = "range" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "ix.shards")
			if err := s.SaveSharded(dir); err != nil {
				t.Fatal(err)
			}
			// A copy of shard 1 beside the directory, so the escaping
			// name resolves to a valid shard file.
			shard, err := os.ReadFile(filepath.Join(dir, shardFileName(1)))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(root, shardFileName(1)), shard, 0o644); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, ShardManifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var m shardManifest
			if err := json.Unmarshal(data, &m); err != nil {
				t.Fatal(err)
			}
			tc.damage(&m)
			if data, err = json.Marshal(&m); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := OpenSharded(dir, g)
			if err == nil {
				got.Close()
				t.Fatal("untrusted manifest opened")
			}
			if !errors.Is(err, errBadManifest) {
				t.Fatalf("error %q does not wrap errBadManifest", err)
			}
		})
	}
}

// FuzzShardsManifest feeds arbitrary manifests to OpenSharded over a
// directory of real shard files, seeded with the manifest SaveSharded
// writes and the same manifest naming a "range" partitioner, a kind
// OpenSharded refuses. Whatever the manifest, OpenSharded never panics;
// when it opens, the storage reports the manifest's k and shard count,
// and Close succeeds.
func FuzzShardsManifest(f *testing.F) {
	r := rand.New(rand.NewSource(29))
	_, g, _ := extendRandom(r, 20, 60, []string{"a", "b"}, 0)
	dir := filepath.Join(f.TempDir(), "ix.shards")
	path := filepath.Join(dir, ShardManifestName)
	s, err := BuildSharded(g, 2, BuildOptions{}, NewHashPartitioner(3))
	if err != nil {
		f.Fatal(err)
	}
	if err := s.SaveSharded(dir); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(bytes.Replace(data, []byte(`"hash"`), []byte(`"range"`), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSharded(dir, g)
		if err != nil {
			return
		}
		var m shardManifest
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("manifest opened but does not decode: %v", err)
		}
		if s.K() != m.K || s.NumShards() != m.Shards {
			t.Errorf("opened k=%d with %d shards, manifest says k=%d with %d", s.K(), s.NumShards(), m.K, m.Shards)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOpenShardedCorruptLayouts: a sharded directory that is incomplete,
// inconsistent, or torn by a crashed save yields an error (or the intact
// previous layout), never a panic and never a mix of two saves.
func TestOpenShardedCorruptLayouts(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	base, full, batch := extendRandom(r, 30, 90, []string{"a", "b"}, 0.3)
	old, err := BuildSharded(base, 2, BuildOptions{}, NewHashPartitioner(3))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Build(base, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	manifest := func(dir string) string { return filepath.Join(dir, ShardManifestName) }
	rewrite := func(from, to string) func(t *testing.T, dir string) {
		return func(t *testing.T, dir string) {
			data, err := os.ReadFile(manifest(dir))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(data, []byte(from)) {
				t.Fatalf("manifest has no %q to corrupt", from)
			}
			if err := os.WriteFile(manifest(dir), bytes.Replace(data, []byte(from), []byte(to), 1), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string)
		intact bool // the layout must still open, as the old save
	}{
		{name: "missing manifest", damage: func(t *testing.T, dir string) { os.Remove(manifest(dir)) }},
		{name: "manifest not JSON", damage: rewrite("{", "<")},
		{name: "unknown manifest version", damage: rewrite(`"version": 1`, `"version": 9`)},
		{name: "shard count disagrees with file list", damage: rewrite(`"shards": 3`, `"shards": 4`)},
		{name: "unknown partitioner", damage: rewrite(`"hash"`, `"modulo"`)},
		{name: "missing shard file", damage: func(t *testing.T, dir string) { os.Remove(filepath.Join(dir, shardFileName(1))) }},
		{name: "truncated shard file", damage: func(t *testing.T, dir string) {
			if err := os.Truncate(filepath.Join(dir, shardFileName(2)), 100); err != nil {
				t.Fatal(err)
			}
		}},
		// A save over an existing layout that crashed while writing: the
		// half-written successor sits under the temp name, and dir still
		// names the complete old layout.
		{name: "torn overwrite, crashed mid-write", intact: true, damage: func(t *testing.T, dir string) {
			if err := os.MkdirAll(dir+".tmp", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir+".tmp", shardFileName(0)), []byte("PIDX half a shard"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		// ... or between the two renames: the old layout is moved aside
		// and nothing is named dir — an error, not a torn layout.
		{name: "torn overwrite, crashed between renames", damage: func(t *testing.T, dir string) {
			if err := os.Rename(dir, dir+".old"); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ix.shards")
			if err := old.SaveSharded(dir); err != nil {
				t.Fatal(err)
			}
			tc.damage(t, dir)
			got, err := Open(dir, base)
			if !tc.intact {
				if err == nil {
					t.Fatalf("damaged layout opened as %T", got)
				}
				return
			}
			if err != nil {
				t.Fatalf("the old layout must survive: %v", err)
			}
			defer got.(*ShardedStorage).Close()
			checkStorageEqual(t, got.(*ShardedStorage), oracle)
		})
	}

	// A completed save over an existing layout replaces it wholesale, and
	// clears what a crashed predecessor left behind.
	dir := filepath.Join(t.TempDir(), "ix.shards")
	if err := old.SaveSharded(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	next := compacted(t, pushChunks(t, old, batch, 1)).(*ShardedStorage)
	if err := next.SaveSharded(dir); err != nil {
		t.Fatal(err)
	}
	for _, leftover := range []string{dir + ".tmp", dir + ".old"} {
		if _, err := os.Stat(leftover); !os.IsNotExist(err) {
			t.Errorf("%s survives a completed save (%v)", leftover, err)
		}
	}
	got, err := OpenSharded(dir, full)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	fullOracle, err := Build(full, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkStorageEqual(t, got, fullOracle)
}

// TestShardedConcurrentReaders exercises concurrent scans over distinct
// shards under -race — over a sharded base, and over a tier stack on
// one, whose shard views and per-tier splits are built by whichever
// reader gets there first.
func TestShardedConcurrentReaders(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	base, _, batch := extendRandom(r, 30, 100, []string{"a", "b"}, 0.2)
	s, err := BuildSharded(base, 2, BuildOptions{}, NewHashPartitioner(4))
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]shardedStorage{"base": s, "stack": pushChunks(t, s, batch, 2)} {
		p0 := s.PathByID(0)
		want := len(st.Relation(p0))
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					got := 0
					for sh := 0; sh < st.Partitioner().NumShards(); sh++ {
						got += len(st.Shard(sh).Relation(p0))
					}
					if got != want || len(st.Relation(p0)) != want {
						t.Errorf("%s: concurrent shard reads: %d pairs, want %d", name, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
