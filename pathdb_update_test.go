package pathdb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	pathdb "repro"
)

// buildUpdateFixture returns a DB over a base graph, the update batch
// held out of it, and an oracle DB over the full graph. Node names are
// shared, so answers compare by name.
func buildUpdateFixture(t *testing.T, seed int64, holdout float64) (db, oracle *pathdb.DB, batch []pathdb.LabeledEdge) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	labels := []string{"knows", "worksFor"}
	base, full := pathdb.NewGraph(), pathdb.NewGraph()
	const nodes = 40
	name := func(n int) string { return fmt.Sprintf("p%02d", n) }
	for _, l := range labels {
		for e := 0; e < 120; e++ {
			s, d := name(r.Intn(nodes)), name(r.Intn(nodes))
			full.AddEdge(s, l, d)
			if r.Float64() < holdout {
				batch = append(batch, pathdb.LabeledEdge{Src: s, Label: l, Dst: d})
			} else {
				base.AddEdge(s, l, d)
			}
		}
	}
	var err error
	if db, err = pathdb.Build(base, pathdb.Options{K: 2, CompactRatio: -1}); err != nil {
		t.Fatal(err)
	}
	if oracle, err = pathdb.Build(full, pathdb.Options{K: 2}); err != nil {
		t.Fatal(err)
	}
	return db, oracle, batch
}

func queryNames(t *testing.T, db *pathdb.DB, q string) [][2]string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return sortedNames(res.Names)
}

// TestApplyBatchMatchesRebuild: the public update path must answer
// queries identically to a from-scratch rebuild, before and after
// compaction, across plain paths, inverses, unions, and closures.
func TestApplyBatchMatchesRebuild(t *testing.T) {
	db, oracle, batch := buildUpdateFixture(t, 11, 0.15)
	if err := db.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	st := db.UpdateStats()
	if st.Epoch != 1 || st.AppliedBatches != 1 {
		t.Fatalf("UpdateStats after one batch: %+v", st)
	}
	if st.DeltaEntries == 0 {
		t.Fatal("batch produced no delta entries")
	}
	queries := []string{
		"knows", "knows/worksFor", "knows|worksFor", "knows^-/worksFor",
		"(knows|worksFor){1,2}", "knows*", "(knows|worksFor^-)*",
	}
	for _, q := range queries {
		if got, want := queryNames(t, db, q), queryNames(t, oracle, q); !slices.Equal(got, want) {
			t.Errorf("%q: updated DB %d pairs, rebuild %d", q, len(got), len(want))
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	st = db.UpdateStats()
	if st.Compactions != 1 || st.DeltaEntries != 0 || st.Epoch != 2 {
		t.Fatalf("UpdateStats after Compact: %+v", st)
	}
	for _, q := range queries {
		if got, want := queryNames(t, db, q), queryNames(t, oracle, q); !slices.Equal(got, want) {
			t.Errorf("%q after Compact: updated DB %d pairs, rebuild %d", q, len(got), len(want))
		}
	}
	// QueryFrom and QueryParallel run over the same snapshot machinery.
	src := queryNames(t, oracle, "knows")[0][0]
	a, err := db.QueryFrom("knows/worksFor", src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := oracle.QueryFrom("knows/worksFor", src)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Errorf("QueryFrom disagrees with rebuild")
	}
	pr, err := db.QueryParallel("knows|worksFor", pathdb.StrategyMinSupport, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sortedNames(pr.Names), queryNames(t, oracle, "knows|worksFor")) {
		t.Errorf("QueryParallel disagrees with rebuild")
	}
}

// TestApplyBatchNewVocabulary: updates may introduce nodes and labels
// the base graph never saw.
func TestApplyBatchNewVocabulary(t *testing.T) {
	g := pathdb.NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch([]pathdb.LabeledEdge{
		{Src: "zoe", Label: "mentors", Dst: "newcomer"},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("knows/mentors")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 1 || res.Names[0] != [2]string{"ada", "newcomer"} {
		t.Fatalf("knows/mentors = %v, want ada->newcomer", res.Names)
	}
}

// TestServerSeesUpdates: a Server created before an update must serve
// the new snapshot afterwards.
func TestServerSeesUpdates(t *testing.T) {
	db, oracle, batch := buildUpdateFixture(t, 12, 0.1)
	srv := db.Serve(pathdb.ServeOptions{})
	const q = "knows/worksFor"
	if _, err := srv.Query(q); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := sortedNames(res.Names), queryNames(t, oracle, q); !slices.Equal(got, want) {
		t.Errorf("served answer after update: %d pairs, rebuild %d", len(got), len(want))
	}
}

// TestAutoCompaction: once the delta outgrows CompactRatio, ApplyBatch
// must schedule a background compaction that folds the overlay.
func TestAutoCompaction(t *testing.T) {
	g := pathdb.NewGraph()
	for i := 0; i < 20; i++ {
		g.AddEdge(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", (i+1)%20))
	}
	db, err := pathdb.Build(g, pathdb.Options{K: 2, CompactRatio: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	var batch []pathdb.LabeledEdge
	for i := 0; i < 20; i++ {
		batch = append(batch, pathdb.LabeledEdge{Src: fmt.Sprintf("n%d", i), Label: "a", Dst: fmt.Sprintf("n%d", (i+7)%20)})
	}
	if err := db.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := db.UpdateStats()
		if st.Compactions >= 1 && st.DeltaEntries == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := db.Query("a/a")
	if err != nil {
		t.Fatal(err)
	}
	// Each node reaches {i+2, i+8, i+14} in two steps over cycle+chords.
	if len(res.Pairs) != 60 {
		t.Fatalf("a/a after auto-compaction: %d pairs, want 60", len(res.Pairs))
	}
}

// TestCloseDuringAutoCompaction is the Close-vs-background-compaction
// regression test: a tiny CompactRatio makes every ApplyBatch spawn an
// asynchronous Compact, and Close must either cancel a compaction that
// has not started or wait out one that has — never unmap the base index
// from under it. Run under -race in CI.
func TestCloseDuringAutoCompaction(t *testing.T) {
	graphPath := writeTestGraph(t)
	// Several open/close cycles to hit different interleavings: closing
	// right after the ApplyBatch that spawned the compaction, and after
	// a short delay that lets it get into the merge.
	for round := 0; round < 8; round++ {
		g, err := pathdb.LoadGraph(graphPath)
		if err != nil {
			t.Fatal(err)
		}
		built, err := pathdb.Build(g, pathdb.Options{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		indexPath := filepath.Join(t.TempDir(), "graph.pix")
		if err := built.SaveIndexV3(indexPath); err != nil {
			t.Fatal(err)
		}
		db, err := pathdb.OpenWith(graphPath, indexPath, pathdb.Options{K: 2, CompactRatio: 1e-6})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1+round%3; i++ {
			edge := pathdb.LabeledEdge{Src: fmt.Sprintf("new%d", i), Label: "knows", Dst: "ada"}
			if err := db.ApplyBatch([]pathdb.LabeledEdge{edge}); err != nil {
				t.Fatal(err)
			}
		}
		if round%2 == 1 {
			time.Sleep(time.Duration(round) * 100 * time.Microsecond)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// By the time Close returns the compaction either never started
		// (cancelled) or ran to completion (waited out). Cancelled leaves
		// the engine on the now-unmapped base, so operations fail with
		// ErrIndexClosed; completed leaves it on the heap, so they still
		// work (the documented Close semantics). Torn state — a fault, a
		// wrong answer, a race report — is the bug this test exists for.
		res, err := db.Query("knows")
		if err != nil {
			if !strings.Contains(err.Error(), "closed") {
				t.Fatalf("query after Close returned %v, want success or index-closed error", err)
			}
		} else if len(res.Pairs) == 0 {
			t.Fatal("query after Close-with-completed-compaction lost the relation")
		}
		if err := db.ApplyBatch([]pathdb.LabeledEdge{{Src: "x", Label: "knows", Dst: "y"}}); err != nil && !errors.Is(err, pathdb.ErrIndexClosed) {
			t.Fatalf("ApplyBatch after Close returned %v, want nil or ErrIndexClosed", err)
		}
	}
}

// TestCloseDuringQueries is the use-after-munmap regression test: Close
// on a mapped DB racing in-flight queries must block until they drain;
// queries that start after Close fail with a deterministic error. Run
// under -race in CI.
func TestCloseDuringQueries(t *testing.T) {
	graphPath := writeTestGraph(t)
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	built, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(t.TempDir(), "graph.pix")
	if err := built.SaveIndexV3(indexPath); err != nil {
		t.Fatal(err)
	}
	db, err := pathdb.Open(graphPath, indexPath)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var (
		wg       sync.WaitGroup
		started  sync.WaitGroup
		ok, fail atomic.Int64
	)
	queries := []string{"knows/knows", "knows|worksFor", "knows^-/likes", "knows*"}
	started.Add(workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			startedOnce := false
			for i := 0; ; i++ {
				_, err := db.Query(queries[(w+i)%len(queries)])
				switch {
				case err == nil:
					ok.Add(1)
				case strings.Contains(err.Error(), "closed"):
					fail.Add(1)
					if !startedOnce {
						started.Done()
					}
					return
				default:
					t.Errorf("unexpected query error: %v", err)
					if !startedOnce {
						started.Done()
					}
					return
				}
				if !startedOnce {
					startedOnce = true
					started.Done()
				}
			}
		}(w)
	}
	started.Wait() // every worker has completed at least one query (or bailed)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no query succeeded before Close")
	}
	if fail.Load() != workers {
		t.Errorf("%d workers ended on the closed error, want %d", fail.Load(), workers)
	}
	// After Close, new queries fail deterministically.
	if _, err := db.Query("knows"); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Errorf("query after Close returned %v, want index-closed error", err)
	}
	// And updates fail the same way rather than reading unmapped runs.
	err = db.ApplyBatch([]pathdb.LabeledEdge{{Src: "ada", Label: "knows", Dst: "bob"}})
	if err == nil || !errors.Is(err, pathdb.ErrIndexClosed) {
		t.Errorf("ApplyBatch after Close returned %v, want ErrIndexClosed", err)
	}
}
