package core

import (
	"errors"
	"maps"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rpq"
)

// TestDifferentialHeapV3 is the storage-format differential for the
// block-compressed file: engines over heap storage and over the
// compressed v3 file must return identical answers for random RPQs —
// closures included — across all four strategies, EvalFrom, and
// ExecuteParallel (checkEnginesAgree covers them all).
func TestDifferentialHeapV3(t *testing.T) {
	labels := []string{"a", "b", "c"}
	g := randomGraph(rand.New(rand.NewSource(41)), 35, 100, labels)
	heap := newTestEngine(t, g, 2)

	v3Path := filepath.Join(t.TempDir(), "diff.v3")
	if err := heap.Storage().(*pathindex.Index).Save(v3Path); err != nil {
		t.Fatal(err)
	}
	c, err := pathindex.OpenCompressed(v3Path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v3Eng, err := NewEngineFromStorage(c, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}

	fixed := []string{"a", "a/b", "a|b/c", "a^-/b", "(a|b){1,2}", "a*", "(a|b^-)*", "a/(b|c)*", "c?/a+"}
	for _, q := range fixed {
		expr := rpq.MustParse(q)
		checkEnginesAgree(t, v3Eng, heap, expr)
	}

	r := rand.New(rand.NewSource(42))
	genOpts := rpq.DefaultGenOptions(labels)
	genOpts.AllowUnbounded = true
	checked := 0
	for i := 0; i < 30; i++ {
		expr := rpq.Generate(r, genOpts)
		if checkEnginesAgree(t, v3Eng, heap, expr) {
			checked++
		}
	}
	if checked < 15 {
		t.Fatalf("only %d random queries were checkable; generator or limits changed?", checked)
	}

	// The compressed engine must actually have decoded blocks to answer,
	// and report it per query.
	res, err := v3Eng.Eval(rpq.MustParse("a/b"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BlocksDecoded == 0 || res.Stats.BytesDecoded == 0 {
		t.Errorf("v3 query Stats report (%d blocks, %d bytes) decoded, want non-zero",
			res.Stats.BlocksDecoded, res.Stats.BytesDecoded)
	}
	if res, err := heap.Eval(rpq.MustParse("a/b"), plan.MinSupport); err != nil {
		t.Fatal(err)
	} else if res.Stats.BlocksDecoded != 0 {
		t.Errorf("heap query claims %d blocks decoded", res.Stats.BlocksDecoded)
	}
}

// TestUpdateOverCompressedStorage runs the live-update differential over
// a compressed v3 base: ApplyBatch over the decode-on-scan storage (the
// tier stack merges uncompressed deltas with compressed base blocks) and a
// subsequent Compact must answer like a from-scratch rebuild, and Close
// under an updated snapshot must fail queries with ErrClosed rather
// than fault.
func TestUpdateOverCompressedStorage(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	base, full, batches := splitGraph(r, 25, 70, []string{"a", "b"}, 2)
	heapEng := newTestEngine(t, base, 2)
	path := filepath.Join(t.TempDir(), "base.v3")
	if err := heapEng.Storage().(*pathindex.Index).Save(path); err != nil {
		t.Fatal(err)
	}
	c, err := pathindex.OpenCompressed(path, base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cEng, err := NewEngineFromStorage(c, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracle := newTestEngine(t, full, 2)
	updated := applyAll(t, cEng, batches)
	if _, isLevels := updated.Storage().(*pathindex.Levels); !isLevels {
		t.Fatalf("ApplyBatch over compressed storage produced %T, want tier stack", updated.Storage())
	}
	queries := []string{"a", "a/b", "a|b", "a*", "(a|b)*", "a/b^-", "a/(b)*"}
	for _, q := range queries {
		checkEnginesAgree(t, updated, oracle, rpq.MustParse(q))
	}
	compacted, err := updated.Compact()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		checkEnginesAgree(t, compacted, oracle, rpq.MustParse(q))
	}
	// The un-compacted snapshot still scans compressed base blocks, so
	// it pins the mapping: a query racing Close either completes or
	// fails with ErrClosed — never faults.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := updated.Eval(rpq.MustParse("a/b"), plan.MinSupport); !errors.Is(err, pathindex.ErrClosed) {
		t.Fatalf("query after Close returned %v, want ErrClosed", err)
	}
	// The compacted snapshot folded everything onto the heap and must
	// survive the base's Close.
	if _, err := compacted.Eval(rpq.MustParse("a/b"), plan.MinSupport); err != nil {
		t.Fatalf("compacted snapshot failed after base Close: %v", err)
	}
}

// TestStreamedClosureStats verifies a closure is observable in Stats:
// a* on a chain counts one closure disjunct and no path disjuncts, and
// the closure operator's rows are exactly the answer it streamed.
func TestStreamedClosureStats(t *testing.T) {
	g := chainTestGraph(t, 30)
	res, err := newTestEngine(t, g, 2).Eval(rpq.MustParse("a*"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Closures != 1 || res.Stats.Disjuncts != 0 {
		t.Errorf("a* stats: %d closures / %d path disjuncts, want 1/0", res.Stats.Closures, res.Stats.Disjuncts)
	}
	if want := 30 * 31 / 2; len(res.Pairs) != want || res.Stats.OperatorRows["closure"] != want {
		t.Errorf("a* returned %d pairs, closure operator %d rows; want %d", len(res.Pairs), res.Stats.OperatorRows["closure"], want)
	}
}

// TestExecuteParallelStats: parallel execution reports the same
// statistics as Execute — exec time, decode work over compressed
// storage, and per-operator rows equal for every operator kind but the
// disjuncts' gather — and TotalBatches sums the per-operator batches.
func TestExecuteParallelStats(t *testing.T) {
	labels := []string{"a", "b", "c"}
	g := randomGraph(rand.New(rand.NewSource(43)), 40, 120, labels)
	heap := newTestEngine(t, g, 2)
	path := filepath.Join(t.TempDir(), "stats.v3")
	if err := heap.Storage().(*pathindex.Index).Save(path); err != nil {
		t.Fatal(err)
	}
	c, err := pathindex.OpenCompressed(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e, err := NewEngineFromStorage(c, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"a/b|b/c|c^-/a", "(a|b){1,3}", "a/b/c|c*|()"} {
		prep, err := e.Compile(rpq.MustParse(q), plan.MinSupport)
		if err != nil {
			t.Fatal(err)
		}
		if len(prep.Plan().Disjuncts) < 2 {
			t.Fatalf("%q: %d disjuncts, want several", q, len(prep.Plan().Disjuncts))
		}
		seq, err := prep.Execute()
		if err != nil {
			t.Fatal(err)
		}
		par, err := prep.ExecuteParallel(4)
		if err != nil {
			t.Fatal(err)
		}
		st := par.Stats
		if st.ExecTime <= 0 || st.BlocksDecoded <= 0 {
			t.Errorf("%q: ExecuteParallel reports ExecTime %v, %d blocks decoded; want both > 0", q, st.ExecTime, st.BlocksDecoded)
		}
		if st.ResultPairs != len(par.Pairs) || len(par.Pairs) != len(seq.Pairs) {
			t.Errorf("%q: ExecuteParallel %d pairs (ResultPairs %d), Execute %d", q, len(par.Pairs), st.ResultPairs, len(seq.Pairs))
		}
		if st.OperatorRows["gather"] == 0 {
			t.Errorf("%q: no gather rows; operator rows %v", q, st.OperatorRows)
		}
		rows := maps.Clone(st.OperatorRows)
		delete(rows, "gather")
		if !maps.Equal(rows, seq.Stats.OperatorRows) {
			t.Errorf("%q: operator rows %v, Execute's %v", q, st.OperatorRows, seq.Stats.OperatorRows)
		}
		sum := 0
		for _, n := range st.OperatorBatches {
			sum += n
		}
		if sum == 0 || st.TotalBatches != sum {
			t.Errorf("%q: TotalBatches %d, per-operator batches sum to %d", q, st.TotalBatches, sum)
		}
	}
}
