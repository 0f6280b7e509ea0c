package core

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/reachability"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

// TestDifferentialRandomQueries is the property-based differential test
// of the serving layer: random RPQs must produce identical sorted result
// sets through the server (query text, parsed again per request) and
// through the engine (the generated AST), under all four strategies.
func TestDifferentialRandomQueries(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(21)), 40, 120, []string{"a", "b", "c"})
	e := newTestEngine(t, g, 2)
	srv := e.Serve(ServeOptions{})

	r := rand.New(rand.NewSource(22))
	genOpts := rpq.DefaultGenOptions([]string{"a", "b", "c"})
	checked := 0
	const iterations = 60
	for i := 0; i < iterations; i++ {
		expr := rpq.Generate(r, genOpts)
		text := expr.String()
		var want []pathindex.Pair
		ok := true
		for _, strat := range plan.Strategies() {
			off, err := e.Eval(expr, strat)
			if err != nil {
				var le *rewrite.LimitError
				if errors.As(err, &le) {
					ok = false // too large to expand; skip this expression
					break
				}
				t.Fatalf("engine eval of %q: %v", text, err)
			}
			offSorted := sortedPairs(off.Pairs)
			if want == nil {
				want = offSorted
			} else if !slices.Equal(offSorted, want) {
				t.Fatalf("strategy %v disagrees with baseline on %q", strat, text)
			}
			served, err := srv.Query(text, strat)
			if err != nil {
				t.Fatalf("served eval of %q: %v", text, err)
			}
			if !slices.Equal(sortedPairs(served.Pairs), want) {
				t.Fatalf("server disagrees with engine on %q under %v", text, strat)
			}
		}
		if ok {
			checked++
		}
	}
	if checked < iterations/2 {
		t.Fatalf("only %d/%d random queries were checkable; generator or limits changed?", checked, iterations)
	}
}

// TestDifferentialHeapVsMapped is the property-based differential test
// of the storage layer: on a random graph, an engine over the in-memory
// index and an engine over the same index saved to disk and reopened
// with pathindex.OpenCompressed (the v3 file memory-mapped, decoded on
// scan) must return identical sorted result sets for random RPQs under
// all four strategies, and identical single-source answers via EvalFrom.
func TestDifferentialHeapVsMapped(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(31)), 40, 120, []string{"a", "b", "c"})
	heap := newTestEngine(t, g, 2)

	path := filepath.Join(t.TempDir(), "diff.v3")
	if err := heap.Storage().(*pathindex.Index).Save(path); err != nil {
		t.Fatal(err)
	}
	m, err := pathindex.OpenCompressed(path, g)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	mapped, err := NewEngineFromStorage(m, Options{K: m.K()})
	if err != nil {
		t.Fatal(err)
	}

	r := rand.New(rand.NewSource(32))
	genOpts := rpq.DefaultGenOptions([]string{"a", "b", "c"})
	checked := 0
	const iterations = 50
	for i := 0; i < iterations; i++ {
		expr := rpq.Generate(r, genOpts)
		text := expr.String()
		ok := true
		for _, strat := range plan.Strategies() {
			want, err := heap.Eval(expr, strat)
			if err != nil {
				var le *rewrite.LimitError
				if errors.As(err, &le) {
					ok = false
					break
				}
				t.Fatalf("heap eval of %q: %v", text, err)
			}
			got, err := mapped.Eval(expr, strat)
			if err != nil {
				t.Fatalf("mapped eval of %q: %v", text, err)
			}
			if !slices.Equal(sortedPairs(got.Pairs), sortedPairs(want.Pairs)) {
				t.Fatalf("mapped storage disagrees with heap on %q under %v", text, strat)
			}
		}
		if !ok {
			continue
		}
		checked++
		src := graph.NodeID(r.Intn(g.NumNodes()))
		wantFrom, err := heap.EvalFrom(expr, src)
		if err != nil {
			t.Fatalf("heap EvalFrom(%q, %d): %v", text, src, err)
		}
		gotFrom, err := mapped.EvalFrom(expr, src)
		if err != nil {
			t.Fatalf("mapped EvalFrom(%q, %d): %v", text, src, err)
		}
		if !slices.Equal(gotFrom, wantFrom) {
			t.Fatalf("mapped EvalFrom disagrees with heap on %q from %d", text, src)
		}
	}
	if checked < iterations/2 {
		t.Fatalf("only %d/%d random queries were checkable; generator or limits changed?", checked, iterations)
	}
}

// TestDifferentialReachability compares the engine (direct and through a
// server, all strategies) against the reachability-index baseline on the
// (l1|...|lm)* query shapes that baseline supports.
func TestDifferentialReachability(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(23)), 8, 12, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	srv := e.Serve(ServeOptions{})

	for _, text := range []string{"a*", "b*", "(a|b)*", "(a|b^-)*"} {
		expr := rpq.MustParse(text)
		want, err := reachability.Eval(expr, g)
		if err != nil {
			t.Fatalf("reachability baseline rejected %q: %v", text, err)
		}
		wantSorted := sortedPairs(want)
		for _, strat := range plan.Strategies() {
			off, err := e.Eval(expr, strat)
			if err != nil {
				t.Fatalf("engine eval of %q under %v: %v", text, strat, err)
			}
			if !slices.Equal(sortedPairs(off.Pairs), wantSorted) {
				t.Errorf("engine disagrees with reachability on %q under %v", text, strat)
			}
			served, err := srv.Query(text, strat)
			if err != nil {
				t.Fatalf("served eval of %q under %v: %v", text, strat, err)
			}
			if !slices.Equal(sortedPairs(served.Pairs), wantSorted) {
				t.Errorf("server disagrees with reachability on %q under %v", text, strat)
			}
		}
	}
}
