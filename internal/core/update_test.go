package core

import (
	"errors"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

// splitGraph deals a random edge set into a base graph and update
// batches, plus the full graph built from scratch (the rebuild oracle).
// All graphs intern nodes and labels in the same order, so node IDs and
// result pairs are directly comparable.
func splitGraph(r *rand.Rand, nodes, edgesPerLabel int, labels []string, numBatches int) (base, full *graph.Graph, batches [][]graph.LabeledEdge) {
	base, full = graph.New(), graph.New()
	base.EnsureNodes(nodes)
	full.EnsureNodes(nodes)
	batches = make([][]graph.LabeledEdge, numBatches)
	for _, name := range labels {
		base.Label(name)
		full.Label(name)
		for e := 0; e < edgesPerLabel; e++ {
			src, dst := r.Intn(nodes), r.Intn(nodes)
			le := graph.LabeledEdge{Src: full.NodeName(graph.NodeID(src)), Label: name, Dst: full.NodeName(graph.NodeID(dst))}
			full.AddEdge(le.Src, le.Label, le.Dst)
			if b := r.Intn(2 * numBatches); b < numBatches {
				batches[b] = append(batches[b], le)
			} else {
				base.AddEdge(le.Src, le.Label, le.Dst)
			}
		}
	}
	base.Freeze()
	full.Freeze()
	return base, full, batches
}

// applyAll threads an engine through every batch, asserting the epoch
// advances once per non-empty batch.
func applyAll(t *testing.T, e *Engine, batches [][]graph.LabeledEdge) *Engine {
	t.Helper()
	for _, b := range batches {
		ne, err := e.ApplyBatch(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) > 0 && ne.Epoch() != e.Epoch()+1 {
			t.Fatalf("epoch %d -> %d across a non-empty batch", e.Epoch(), ne.Epoch())
		}
		e = ne
	}
	return e
}

// checkEnginesAgree compares the updated engine against the oracle on
// one expression: all four strategies, EvalFrom from several sources,
// and ExecuteParallel must produce the oracle's answer set.
func checkEnginesAgree(t *testing.T, updated, oracle *Engine, expr rpq.Expr) bool {
	t.Helper()
	text := expr.String()
	var want []pathindex.Pair
	for _, strat := range plan.Strategies() {
		wantRes, err := oracle.Eval(expr, strat)
		if err != nil {
			var le *rewrite.LimitError
			if errors.As(err, &le) {
				return false // too large to expand; skip this expression
			}
			t.Fatalf("oracle eval of %q: %v", text, err)
		}
		if want == nil {
			want = sortedPairs(wantRes.Pairs)
		}
		got, err := updated.Eval(expr, strat)
		if err != nil {
			t.Fatalf("updated eval of %q under %v: %v", text, strat, err)
		}
		if !slices.Equal(sortedPairs(got.Pairs), want) {
			t.Fatalf("updated engine disagrees with rebuild on %q under %v: %d vs %d pairs",
				text, strat, len(got.Pairs), len(want))
		}
	}
	prep, err := updated.Compile(expr, plan.MinSupport)
	if err != nil {
		t.Fatalf("compile %q: %v", text, err)
	}
	par, err := prep.ExecuteParallel(4)
	if err != nil {
		t.Fatalf("parallel eval of %q: %v", text, err)
	}
	if !slices.Equal(sortedPairs(par.Pairs), want) {
		t.Fatalf("ExecuteParallel disagrees with rebuild on %q", text)
	}
	for src := 0; src < oracle.Graph().NumNodes(); src += 7 {
		a, err := updated.EvalFrom(expr, graph.NodeID(src))
		if err != nil {
			t.Fatalf("updated EvalFrom(%q, %d): %v", text, src, err)
		}
		b, err := oracle.EvalFrom(expr, graph.NodeID(src))
		if err != nil {
			t.Fatalf("oracle EvalFrom(%q, %d): %v", text, src, err)
		}
		if !slices.Equal(a, b) {
			t.Fatalf("EvalFrom disagrees with rebuild on %q from %d", text, src)
		}
	}
	return true
}

// TestDifferentialUpdateVsRebuild is the update differential property
// test: a base engine threaded through ApplyBatch batches (and then
// Compact) must answer random queries — including Kleene closures —
// identically to an engine rebuilt from scratch over the full graph,
// across all four strategies, EvalFrom, and ExecuteParallel.
func TestDifferentialUpdateVsRebuild(t *testing.T) {
	labels := []string{"a", "b", "c"}
	fixed := []string{"a", "a/b", "a|b/c", "a^-/b", "(a|b){1,2}", "a*", "(a|b^-)*", "a/(b|c)*", "c?/a+"}
	for seed := int64(50); seed < 53; seed++ {
		r := rand.New(rand.NewSource(seed))
		base, full, batches := splitGraph(r, 30, 90, labels, 3)
		baseEng := newTestEngine(t, base, 2)
		oracle := newTestEngine(t, full, 2)
		updated := applyAll(t, baseEng, batches)
		compacted, err := updated.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if _, tiered := compacted.Storage().(*pathindex.Levels); tiered {
			t.Fatal("Compact left a tier stack behind")
		}

		genOpts := rpq.DefaultGenOptions(labels)
		genOpts.AllowUnbounded = true
		checked := 0
		for i := 0; i < 25; i++ {
			expr := rpq.Generate(r, genOpts)
			if checkEnginesAgree(t, updated, oracle, expr) &&
				checkEnginesAgree(t, compacted, oracle, expr) {
				checked++
			}
		}
		if checked < 15 {
			t.Fatalf("only %d random queries were checkable", checked)
		}
		for _, q := range fixed {
			expr := rpq.MustParse(q)
			checkEnginesAgree(t, updated, oracle, expr)
			checkEnginesAgree(t, compacted, oracle, expr)
		}
	}
}

// TestUpdateOverMappedStorage runs the same differential over a
// memory-mapped base index file: heap and mapped bases must serve
// updates identically.
func TestUpdateOverMappedStorage(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	base, full, batches := splitGraph(r, 25, 70, []string{"a", "b"}, 1)
	heapEng := newTestEngine(t, base, 2)
	path := filepath.Join(t.TempDir(), "base.pix")
	if err := heapEng.Storage().(*pathindex.Index).Save(path); err != nil {
		t.Fatal(err)
	}
	m, err := pathindex.OpenStorage(path, base)
	if err != nil {
		t.Fatal(err)
	}
	defer m.(io.Closer).Close()
	mappedEng, err := NewEngineFromStorage(m, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	oracle := newTestEngine(t, full, 2)
	updated := applyAll(t, mappedEng, batches)
	for _, q := range []string{"a", "a/b", "a|b", "a*", "(a|b)*", "a/b^-"} {
		checkEnginesAgree(t, updated, oracle, rpq.MustParse(q))
	}
	// The updated snapshot still reads relation payload out of the
	// mapping through the overlay, so it must pin it: a query racing
	// Close either completes or fails with ErrClosed — never faults.
	if err := m.(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := updated.Eval(rpq.MustParse("a/b"), plan.MinSupport); !errors.Is(err, pathindex.ErrClosed) {
		t.Fatalf("query after Close returned %v, want ErrClosed", err)
	}
}

// TestServeEpochInvalidation: a Server over a swapping EngineSource
// plans every request on the current snapshot, so answers always reflect
// it — including disjuncts over labels that did not exist when the same
// query was first served.
func TestServeEpochInvalidation(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "a", "z")
	g.Freeze()
	cur := newTestEngine(t, g, 2)
	s := NewServer(EngineSourceFunc(func() *Engine { return cur }), ServeOptions{})

	r1, err := s.Query("a|b", plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Pairs) != 2 {
		t.Fatalf("before update: %d pairs, want 2", len(r1.Pairs))
	}

	// The update introduces label b, which the first plan dropped as
	// unknown.
	next, err := cur.ApplyBatch([]graph.LabeledEdge{{Src: "z", Label: "b", Dst: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	cur = next
	r2, err := s.Query("a|b", plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.Pairs) != 3 {
		t.Fatalf("after update: %d pairs, want 3 (new b edge missing: stale plan)", len(r2.Pairs))
	}
}
