package pathdb_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	pathdb "repro"
	"repro/internal/wal"
)

// durableQueries exercises plain paths, inverses, unions, bounded
// repetition, and Kleene closures — the shapes that route differently
// through the planner.
var durableQueries = []string{
	"knows", "knows/worksFor", "knows|worksFor", "knows^-/worksFor",
	"(knows|worksFor){1,2}", "knows*", "(knows|worksFor^-)*",
}

// durableBase deterministically reconstructs the same base graph on
// every call — the contract BuildDurable puts on its callers: recovery
// replays the WAL over an identical base.
func durableBase(seed int64) *pathdb.Graph {
	r := rand.New(rand.NewSource(seed))
	g := pathdb.NewGraph()
	for _, l := range []string{"knows", "worksFor"} {
		for e := 0; e < 80; e++ {
			g.AddEdge(fmt.Sprintf("p%02d", r.Intn(30)), l, fmt.Sprintf("p%02d", r.Intn(30)))
		}
	}
	return g
}

// durableBatches deals deterministic update batches (disjoint from the
// base seed's stream).
func durableBatches(seed int64, n, perBatch int) [][]pathdb.LabeledEdge {
	r := rand.New(rand.NewSource(seed ^ 0x5a5a))
	batches := make([][]pathdb.LabeledEdge, n)
	for i := range batches {
		for e := 0; e < perBatch; e++ {
			batches[i] = append(batches[i], pathdb.LabeledEdge{
				Src:   fmt.Sprintf("p%02d", r.Intn(34)), // may mint new nodes
				Label: []string{"knows", "worksFor"}[r.Intn(2)],
				Dst:   fmt.Sprintf("p%02d", r.Intn(34)),
			})
		}
	}
	return batches
}

// prefixOracle rebuilds from scratch over the base plus the first n
// batches — the recovery differential's ground truth.
func prefixOracle(t *testing.T, seed int64, batches [][]pathdb.LabeledEdge, n int) *pathdb.DB {
	t.Helper()
	full := durableBase(seed)
	for i := 0; i < n; i++ {
		for _, e := range batches[i] {
			full.AddEdge(e.Src, e.Label, e.Dst)
		}
	}
	db, err := pathdb.Build(full, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// checkAllStrategies compares db against oracle on every durable query
// under all four strategies.
func checkAllStrategies(t *testing.T, db, oracle *pathdb.DB, context string) {
	t.Helper()
	for _, q := range durableQueries {
		for _, s := range pathdb.Strategies() {
			got, err := db.QueryWith(q, s)
			if err != nil {
				t.Fatalf("%s: %q under %v: %v", context, q, s, err)
			}
			want, err := oracle.QueryWith(q, s)
			if err != nil {
				t.Fatalf("%s: oracle %q under %v: %v", context, q, s, err)
			}
			if !slices.Equal(sortedNames(got.Names), sortedNames(want.Names)) {
				t.Fatalf("%s: %q under %v: %d pairs, rebuild has %d",
					context, q, s, len(got.Names), len(want.Names))
			}
		}
	}
}

// forShardLayouts runs a durability test over an unsharded lineage and
// a 3-shard one: the WAL, spill, checkpoint, and recovery machinery is
// one code path, and only the base layout (and so the checkpoint index:
// one file or a sharded directory) differs.
func forShardLayouts(t *testing.T, test func(t *testing.T, shards int)) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { test(t, shards) })
	}
}

// buildDurableT opens (or reopens) the durable DB of a test lineage and
// checks that it serves the shard layout the lineage was built with.
func buildDurableT(t *testing.T, seed int64, dir string, shards int, d pathdb.DurabilityOptions) *pathdb.DB {
	t.Helper()
	d.Dir = dir
	d.NoSync = true // tests simulate crashes with file surgery, not power loss
	db, err := pathdb.BuildDurable(durableBase(seed), pathdb.Options{K: 2, CompactRatio: -1, Shards: shards}, d)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.ShardStats().Shards; got != shards {
		t.Fatalf("durable DB serves %d shards, lineage has %d", got, shards)
	}
	return db
}

// TestDurableRecoverRoundTrip: apply batches, close cleanly, reopen the
// same directory — the recovered DB must answer every query under every
// strategy exactly like a from-scratch rebuild over the full graph.
func TestDurableRecoverRoundTrip(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 21
		dir := t.TempDir()
		batches := durableBatches(seed, 4, 25)
		db := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		for _, b := range batches {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		epochBefore := db.UpdateStats().Epoch
		oracle := prefixOracle(t, seed, batches, len(batches))
		checkAllStrategies(t, db, oracle, "before close")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		db2 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		defer db2.Close()
		checkAllStrategies(t, db2, oracle, "after recovery")
		st := db2.DurabilityStats()
		if !st.Enabled || st.RecoveredBatches != int64(len(batches)) || st.RecoveredSpills != 0 {
			t.Fatalf("DurabilityStats after recovery: %+v", st)
		}
		if got := db2.UpdateStats().Epoch; got < epochBefore {
			t.Fatalf("recovered epoch %d regressed below %d", got, epochBefore)
		}
		// Updates continue after recovery.
		if err := db2.ApplyBatch([]pathdb.LabeledEdge{{Src: "p00", Label: "knows", Dst: "p33"}}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDurableTornTailSweep simulates a crash at every byte boundary of
// the WAL tail: each truncated image must recover to a clean batch
// prefix (never a partial batch) and answer exactly like a rebuild over
// that prefix — the crash-window differential.
func TestDurableTornTailSweep(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 22
		srcDir := t.TempDir()
		batches := durableBatches(seed, 3, 12)
		db := buildDurableT(t, seed, srcDir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		for _, b := range batches {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		full, err := os.ReadFile(filepath.Join(srcDir, pathdb.WALFileName))
		if err != nil {
			t.Fatal(err)
		}
		oracles := make([]*pathdb.DB, len(batches)+1)
		for n := range oracles {
			oracles[n] = prefixOracle(t, seed, batches, n)
		}

		// Sweep every truncation point after the header. Decoding stops at
		// the tear, so each cut recovers some prefix of the batch stream.
		for cut := 8; cut <= len(full); cut += 7 {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, pathdb.WALFileName), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			db2 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
			n := db2.DurabilityStats().RecoveredBatches
			if n < 0 || n > int64(len(batches)) {
				t.Fatalf("cut=%d: recovered %d batches", cut, n)
			}
			checkAllStrategies(t, db2, oracles[n], fmt.Sprintf("cut=%d (prefix %d)", cut, n))
			db2.Close()
		}
	})
}

// TestDurableSpillShortcutAndCorruption: with an aggressive spill
// policy recovery loads precomputed tier runs instead of replaying
// batches; corrupting or deleting the spill files must silently fall
// back to batch replay with identical answers.
func TestDurableSpillShortcutAndCorruption(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 23
		dir := t.TempDir()
		batches := durableBatches(seed, 4, 30)
		db := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: 1})
		for _, b := range batches {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if st := db.DurabilityStats(); st.Spills == 0 || st.SpilledTiers == 0 {
			t.Fatalf("aggressive spill policy wrote no spills: %+v", st)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		oracle := prefixOracle(t, seed, batches, len(batches))

		db2 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: 1})
		st := db2.DurabilityStats()
		if st.RecoveredSpills == 0 {
			t.Fatalf("recovery took no spill shortcuts: %+v", st)
		}
		checkAllStrategies(t, db2, oracle, "spill-shortcut recovery")
		db2.Close()

		// Corrupt every spill file mid-payload: recovery must detect it
		// (block checksums / length validation) and replay instead.
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		corrupted := 0
		for _, ent := range ents {
			name := ent.Name()
			if len(name) < 6 || name[:6] != "spill-" {
				continue
			}
			p := filepath.Join(dir, name)
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if len(data) > 16 {
				data[len(data)/2] ^= 0xFF
				if err := os.WriteFile(p, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
				corrupted++
			}
		}
		if corrupted == 0 {
			t.Fatal("no spill files found to corrupt")
		}
		db3 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		st = db3.DurabilityStats()
		if st.RecoveredSpills != 0 || st.RecoveredBatches == 0 {
			t.Fatalf("corrupt spills were not refused: %+v", st)
		}
		checkAllStrategies(t, db3, oracle, "corrupt-spill fallback")
		db3.Close()

		// Deleting them entirely behaves the same (partial-spill crash window).
		for _, ent := range ents {
			if len(ent.Name()) >= 6 && ent.Name()[:6] == "spill-" {
				os.Remove(filepath.Join(dir, ent.Name()))
			}
		}
		db4 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		checkAllStrategies(t, db4, oracle, "missing-spill fallback")
		db4.Close()
	})
}

// TestDurableCheckpointTruncatesWAL: Compact on a durable DB must
// persist a checkpoint, truncate the WAL to the uncovered suffix, and
// recovery must restore from the checkpoint base (the original base
// graph is no longer consulted) plus the post-checkpoint tail.
func TestDurableCheckpointTruncatesWAL(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 24
		dir := t.TempDir()
		batches := durableBatches(seed, 5, 20)
		db := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		for _, b := range batches[:3] {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		st := db.DurabilityStats()
		if st.Checkpoints != 1 || st.CheckpointSeq == 0 {
			t.Fatalf("Compact wrote no checkpoint: %+v", st)
		}
		if st.WALRecords != 1 { // just the checkpoint record
			t.Fatalf("WAL holds %d records after checkpoint, want 1", st.WALRecords)
		}
		// The checkpoint index takes the lineage's layout: one index file, or
		// a sharded directory.
		pix, err := filepath.Glob(filepath.Join(dir, "ckpt-*.pix"))
		if err != nil || len(pix) != 1 {
			t.Fatalf("checkpoint indexes: %v (%v), want one", pix, err)
		}
		if fi, err := os.Stat(pix[0]); err != nil || fi.IsDir() != (shards > 0) {
			t.Fatalf("checkpoint index %s: dir=%v at %d shards (%v)", pix[0], fi.IsDir(), shards, err)
		}
		if us := db.UpdateStats(); us.DeltaEntries != 0 || us.Tiers != 0 {
			t.Fatalf("tiers survive a Compact: %+v", us)
		}
		for _, b := range batches[3:] {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		oracle := prefixOracle(t, seed, batches, len(batches))
		db2 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		defer db2.Close()
		st = db2.DurabilityStats()
		if st.CheckpointSeq == 0 {
			t.Fatalf("recovery ignored the checkpoint: %+v", st)
		}
		if st.RecoveredBatches != 2 {
			t.Fatalf("recovered %d batches after the checkpoint, want 2", st.RecoveredBatches)
		}
		checkAllStrategies(t, db2, oracle, "checkpoint recovery")
	})
}

// TestDurableSuccessiveCheckpointsKeepOne: batches that land while a
// compaction folds are logged before its Checkpoint record, so that
// record's sequence number lies above the next compaction's UptoSeq and
// a by-sequence truncation alone never drops it — its ckpt-* files would
// stay referenced and on disk. After two successive compactions with a
// concurrent writer, only the newest checkpoint's file pair may remain,
// and recovery from it must still match a rebuild.
func TestDurableSuccessiveCheckpointsKeepOne(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 27
		dir := t.TempDir()
		batches := durableBatches(seed, 400, 4)
		// A small step budget stretches the fold over many steps, so the
		// writer's batches land inside it.
		db := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1, CompactBudget: 32})
		applied := 3
		for _, b := range batches[:applied] {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
		}
		// The writer stops as soon as it sees the first compaction installed:
		// whatever it applied is then logged below that compaction's
		// Checkpoint record, which is the order the second truncation must
		// cope with.
		writerDone := make(chan error, 1)
		writing := make(chan struct{})
		go func() {
			for db.UpdateStats().Compactions == 0 && applied < len(batches) {
				if err := db.ApplyBatch(batches[applied]); err != nil {
					writerDone <- err
					return
				}
				if applied++; applied == 4 {
					close(writing)
				}
			}
			writerDone <- nil
		}()
		<-writing
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := <-writerDone; err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		t.Logf("%d batches applied, %d checkpoints", applied, db.DurabilityStats().Checkpoints)
		files, err := filepath.Glob(filepath.Join(dir, "ckpt-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) != 2 {
			t.Fatalf("checkpoint files after two compactions: %v, want one .graph/.pix pair", files)
		}
		oracle := prefixOracle(t, seed, batches, applied)
		checkAllStrategies(t, db, oracle, "after two compactions")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2 := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: -1})
		defer db2.Close()
		checkAllStrategies(t, db2, oracle, "recovery from the newest checkpoint")
	})
}

// TestOpenDurableSupersedesBaseFiles: an OpenDurable deployment starts
// from saved (graph, index) files; after a checkpoint those files are
// superseded and may disappear entirely without affecting recovery.
func TestOpenDurableSupersedesBaseFiles(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		graphPath := writeTestGraph(t)
		g, err := pathdb.LoadGraph(graphPath)
		if err != nil {
			t.Fatal(err)
		}
		built, err := pathdb.Build(g, pathdb.Options{K: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		indexPath := filepath.Join(t.TempDir(), "base.pix")
		if shards > 0 {
			err = built.SaveShardedIndex(indexPath)
		} else {
			err = built.SaveIndexV3(indexPath)
		}
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		dopts := pathdb.DurabilityOptions{Dir: dir, NoSync: true, SpillEntries: -1}
		opts := pathdb.Options{CompactRatio: -1}

		db, err := pathdb.OpenDurable(graphPath, indexPath, opts, dopts)
		if err != nil {
			t.Fatal(err)
		}
		batch := []pathdb.LabeledEdge{
			{Src: "ada", Label: "mentors", Dst: "zoe"},
			{Src: "zoe", Label: "mentors", Dst: "bob"},
		}
		if err := db.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if err := db.ApplyBatch([]pathdb.LabeledEdge{{Src: "bob", Label: "mentors", Dst: "cid"}}); err != nil {
			t.Fatal(err)
		}
		want := queryNames(t, db, "mentors/mentors")
		if len(want) != 2 { // ada->bob, zoe->cid
			t.Fatalf("mentors/mentors = %v", want)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		// The checkpoint carries the full durable state: the original base
		// files can vanish.
		if err := os.Remove(graphPath); err != nil {
			t.Fatal(err)
		}
		if err := os.RemoveAll(indexPath); err != nil {
			t.Fatal(err)
		}
		db2, err := pathdb.OpenDurable(graphPath, indexPath, opts, dopts)
		if err != nil {
			t.Fatal(err)
		}
		defer db2.Close()
		if got := queryNames(t, db2, "mentors/mentors"); !slices.Equal(got, want) {
			t.Fatalf("after checkpoint recovery: %v, want %v", got, want)
		}
		// The checkpoint carries the layout too.
		if got := db2.ShardStats().Shards; got != shards {
			t.Fatalf("checkpoint recovery serves %d shards, the lineage has %d", got, shards)
		}
	})
}

// TestDurableCrashWindowSnapshots snapshots the durability directory
// after every operation of a mixed batch/compact workload and reopens
// each snapshot: every one must recover to exactly the batches
// acknowledged at snapshot time, across all strategies — the
// crash-at-any-operation differential.
func TestDurableCrashWindowSnapshots(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 25
		dir := t.TempDir()
		batches := durableBatches(seed, 5, 18)
		db := buildDurableT(t, seed, dir, shards, pathdb.DurabilityOptions{SpillEntries: 200})

		type snapshot struct {
			dir     string
			applied int
		}
		var snaps []snapshot
		snap := func(applied int) {
			sd := t.TempDir()
			// A sharded checkpoint index is a directory: copy the tree.
			if err := os.CopyFS(sd, os.DirFS(dir)); err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, snapshot{sd, applied})
		}

		for i, b := range batches {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			snap(i + 1)
			if i == 2 {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
				snap(i + 1)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		oracles := make(map[int]*pathdb.DB)
		for _, s := range snaps {
			if oracles[s.applied] == nil {
				oracles[s.applied] = prefixOracle(t, seed, batches, s.applied)
			}
		}
		for i, s := range snaps {
			db2 := buildDurableT(t, seed, s.dir, shards, pathdb.DurabilityOptions{SpillEntries: 200})
			checkAllStrategies(t, db2, oracles[s.applied], fmt.Sprintf("snapshot %d (%d batches)", i, s.applied))
			db2.Close()
		}
	})
}

// TestDurableWALRecordShape pins the on-disk record stream: batches are
// framed in order with ascending sequence numbers and the epochs they
// produced, so `rpq wal` and recovery agree on the log's meaning.
func TestDurableWALRecordShape(t *testing.T) {
	const seed = 26
	dir := t.TempDir()
	batches := durableBatches(seed, 3, 10)
	db := buildDurableT(t, seed, dir, 0, pathdb.DurabilityOptions{SpillEntries: -1})
	for _, b := range batches {
		if err := db.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	lg, recs, err := wal.Open(filepath.Join(dir, pathdb.WALFileName), false)
	if err != nil {
		t.Fatal(err)
	}
	defer lg.Close()
	if len(recs) != len(batches) {
		t.Fatalf("log holds %d records, want %d", len(recs), len(batches))
	}
	var lastEpoch uint64
	for i, r := range recs {
		if r.Type != wal.TypeBatch || r.Seq != uint64(i+1) {
			t.Fatalf("record %d: type=%d seq=%d", i, r.Type, r.Seq)
		}
		br, err := wal.DecodeBatch(r.Payload)
		if err != nil {
			t.Fatal(err)
		}
		// Epochs strictly ascend but are not dense in batch count: tier
		// merges between batches bump the epoch without logging anything.
		if br.Epoch <= lastEpoch || len(br.Edges) != len(batches[i]) {
			t.Fatalf("record %d: epoch=%d (after %d) edges=%d", i, br.Epoch, lastEpoch, len(br.Edges))
		}
		lastEpoch = br.Epoch
	}
}

// saveDurableBase writes the seed's base graph as an edge list plus an
// index built over the reloaded file (its node ids follow file order) —
// the pair of base files OpenDurable reads.
func saveDurableBase(t *testing.T, seed int64, shards int) (graphPath, indexPath string) {
	t.Helper()
	dir := t.TempDir()
	g := durableBase(seed)
	g.Freeze()
	graphPath = filepath.Join(dir, "base.txt")
	if err := g.SaveEdgeList(graphPath); err != nil {
		t.Fatal(err)
	}
	loaded, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pathdb.Build(loaded, pathdb.Options{K: 2, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	indexPath = filepath.Join(dir, "base.pix")
	if shards > 0 {
		err = db.SaveShardedIndex(indexPath)
	} else {
		err = db.SaveIndexV3(indexPath)
	}
	if err != nil {
		t.Fatal(err)
	}
	return graphPath, indexPath
}

// pathsKStats is what |paths_k| feeds: the count itself and the
// selectivities it is the denominator of.
func pathsKStats(t *testing.T, db *pathdb.DB) []float64 {
	t.Helper()
	out := []float64{float64(db.IndexStats().PathsKCount)}
	for _, p := range []string{"knows", "worksFor^-", "knows/worksFor"} {
		sel, err := db.Selectivity(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, sel)
	}
	return out
}

// TestDurableRecoveryKeepsPathsK: |paths_k| is a function of the base
// and the batch log, so a DB whose tiers were merged, spilled and
// checkpointed reports the same count and selectivities after
// OpenDurable replays its directory, whatever tier shapes the replay
// rebuilds: loading the spills, or replaying every batch unmerged once
// they are gone.
func TestDurableRecoveryKeepsPathsK(t *testing.T) {
	forShardLayouts(t, func(t *testing.T, shards int) {
		const seed = 27
		graphPath, indexPath := saveDurableBase(t, seed, shards)
		dopts := pathdb.DurabilityOptions{Dir: t.TempDir(), NoSync: true, SpillEntries: 200}
		opts := pathdb.Options{CompactRatio: -1}
		open := func() *pathdb.DB {
			t.Helper()
			db, err := pathdb.OpenDurable(graphPath, indexPath, opts, dopts)
			if err != nil {
				t.Fatal(err)
			}
			return db
		}
		batches := durableBatches(seed, 9, 12)
		db := open()
		for i, b := range batches {
			if err := db.ApplyBatch(b); err != nil {
				t.Fatal(err)
			}
			if i == 2 {
				if err := db.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Six batches since the checkpoint: fewer tiers means merges ran.
		if st := db.DurabilityStats(); st.Spills == 0 || st.Checkpoints != 1 || st.Tiers >= 6 {
			t.Fatalf("workload did not spill, checkpoint and merge: %+v", st)
		}
		oracle := prefixOracle(t, seed, batches, len(batches))
		exact := oracle.IndexStats().PathsKCount
		want := pathsKStats(t, db)
		if int(want[0]) < exact {
			t.Fatalf("PathsKCount %v is below the rebuild's exact %d", want[0], exact)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		reopen := func(context string, spills bool) *pathdb.DB {
			t.Helper()
			db := open()
			if st := db.DurabilityStats(); (st.RecoveredSpills > 0) != spills || st.CheckpointSeq == 0 {
				t.Fatalf("%s: recovery took the wrong route: %+v", context, st)
			}
			checkAllStrategies(t, db, oracle, context)
			return db
		}

		db2 := reopen("recovery over spills", true)
		if got := pathsKStats(t, db2); !slices.Equal(got, want) {
			t.Fatalf("after recovery over spills |paths_k| and selectivities are %v, before close %v", got, want)
		}
		db2.Close()

		spills, err := filepath.Glob(filepath.Join(dopts.Dir, "spill-*"))
		if err != nil || len(spills) == 0 {
			t.Fatalf("no spill files (%v)", err)
		}
		for _, p := range spills {
			if err := os.Remove(p); err != nil {
				t.Fatal(err)
			}
		}
		db4 := reopen("replay of every batch", false)
		defer db4.Close()
		if got := pathsKStats(t, db4); !slices.Equal(got, want) {
			t.Fatalf("after replaying every batch |paths_k| and selectivities are %v, before close %v", got, want)
		}
	})
}
