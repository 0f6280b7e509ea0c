package pathdb_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	pathdb "repro"
)

// TestShardedBuildOpenRoundTrip: Build with Options.Shards partitions
// the index, SaveShardedIndex persists the directory layout, and Open
// auto-detects it — with answers identical to the unsharded build under
// every strategy.
func TestShardedBuildOpenRoundTrip(t *testing.T) {
	graphPath := writeTestGraph(t)
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}

	g2, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := pathdb.Build(g2, pathdb.Options{K: 2, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	st := sharded.ShardStats()
	if st.Shards != 3 || st.Partitioner != "hash" || len(st.EntriesPerShard) != 3 {
		t.Fatalf("ShardStats after sharded build: %+v", st)
	}
	total := 0
	for _, n := range st.EntriesPerShard {
		total += n
	}
	if total != sharded.IndexStats().Entries {
		t.Fatalf("per-shard entries sum to %d, index reports %d", total, sharded.IndexStats().Entries)
	}

	// The unsharded DB refuses the sharded save path and reports no shards.
	if err := plain.SaveShardedIndex(filepath.Join(t.TempDir(), "x.pixd")); err == nil {
		t.Fatal("SaveShardedIndex on an unsharded DB succeeded")
	}
	if ps := plain.ShardStats(); ps.Shards != 0 {
		t.Fatalf("unsharded DB reports shards: %+v", ps)
	}

	dir := filepath.Join(t.TempDir(), "index.pixd")
	if err := sharded.SaveShardedIndex(dir); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "SHARDS.json")); err != nil || fi.IsDir() {
		t.Fatalf("sharded layout has no manifest: %v", err)
	}
	opened, err := pathdb.Open(graphPath, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()
	if got := opened.ShardStats(); got.Shards != 3 || got.Partitioner != "hash" {
		t.Fatalf("ShardStats after sharded open: %+v", got)
	}

	queries := []string{
		"knows/worksFor", "knows{1,3}", "likes|worksFor^-", "knows*",
		"(knows/likes)?", "worksFor^-/knows",
	}
	for _, q := range queries {
		for _, s := range pathdb.Strategies() {
			want, err := plain.QueryWith(q, s)
			if err != nil {
				t.Fatal(err)
			}
			for name, db := range map[string]*pathdb.DB{"built": sharded, "opened": opened} {
				got, err := db.QueryWith(q, s)
				if err != nil {
					t.Fatalf("%s sharded eval of %q: %v", name, q, err)
				}
				if !slices.Equal(sortedNames(got.Names), sortedNames(want.Names)) {
					t.Fatalf("%s sharded result for %q under %v differs from unsharded", name, q, s)
				}
			}
		}
		wantFrom, err := plain.QueryFrom(q, "ada")
		if err != nil {
			t.Fatal(err)
		}
		gotFrom, err := opened.QueryFrom(q, "ada")
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotFrom, wantFrom) {
			t.Fatalf("sharded QueryFrom for %q differs from unsharded", q)
		}
	}

	// The opened sharded DB plans as the unsharded one does: its EXPLAIN
	// is the same text.
	for _, q := range []string{"knows/worksFor/knows", "knows/worksFor"} {
		want, err := plain.Serve(pathdb.ServeOptions{}).ExplainWith(q, pathdb.StrategySemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := opened.Serve(pathdb.ServeOptions{}).ExplainWith(q, pathdb.StrategySemiNaive); err != nil || got != want {
			t.Fatalf("sharded EXPLAIN of %q (err %v):\n%s\nunsharded:\n%s", q, err, got, want)
		}
	}

	// An updated sharded DB saves its folded state: the pending tier lands
	// in the shard files, under the same partitioning.
	if err := sharded.ApplyBatch([]pathdb.LabeledEdge{{Src: "cid", Label: "likes", Dst: "ada"}}); err != nil {
		t.Fatal(err)
	}
	if us := sharded.UpdateStats(); us.Tiers != 1 {
		t.Fatalf("UpdateStats after one batch on a sharded DB: %+v", us)
	}
	dir2 := filepath.Join(t.TempDir(), "updated.pixd")
	if err := sharded.SaveShardedIndex(dir2); err != nil {
		t.Fatal(err)
	}
	edges, err := os.ReadFile(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	graphPath2 := filepath.Join(t.TempDir(), "updated.txt")
	if err := os.WriteFile(graphPath2, append(edges, "cid likes ada\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := pathdb.Open(graphPath2, dir2)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.ShardStats(); got.Shards != 3 || reopened.UpdateStats().Tiers != 0 {
		t.Fatalf("reopened updated save: %+v, %+v", got, reopened.UpdateStats())
	}
	for _, q := range queries {
		want, err := sharded.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reopened.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedNames(got.Names), sortedNames(want.Names)) {
			t.Fatalf("saved updated index answers %q differently from the live DB", q)
		}
	}
}
