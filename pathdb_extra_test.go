package pathdb

import (
	"path/filepath"
	"testing"

	"repro/internal/graph"
)

func TestQueryFrom(t *testing.T) {
	db := exampleDB(t, 3)
	// Example 3.1 through the public API: knows/knows/worksFor from jan.
	targets, err := db.QueryFrom("knows/knows/worksFor", "jan")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"ada": true, "jan": true, "kim": true}
	if len(targets) != 3 {
		t.Fatalf("targets = %v, want ada/jan/kim", targets)
	}
	for _, n := range targets {
		if !want[n] {
			t.Errorf("unexpected target %q", n)
		}
	}
	if _, err := db.QueryFrom("knows", "whoami"); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestQueryFromAgreesWithQuery(t *testing.T) {
	db := exampleDB(t, 2)
	full, err := db.Query("knows{1,3}|worksFor^-")
	if err != nil {
		t.Fatal(err)
	}
	bySrc := map[string]map[string]bool{}
	for _, p := range full.Names {
		if bySrc[p[0]] == nil {
			bySrc[p[0]] = map[string]bool{}
		}
		bySrc[p[0]][p[1]] = true
	}
	g := db.Graph()
	for n := 0; n < g.NumNodes(); n++ {
		src := g.NodeName(graph.NodeID(n))
		targets, err := db.QueryFrom("knows{1,3}|worksFor^-", src)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != len(bySrc[src]) {
			t.Errorf("source %s: QueryFrom %d targets, Query row %d", src, len(targets), len(bySrc[src]))
		}
		for _, tgt := range targets {
			if !bySrc[src][tgt] {
				t.Errorf("source %s: extra target %s", src, tgt)
			}
		}
	}
}

func TestQueryParallel(t *testing.T) {
	db := exampleDB(t, 2)
	seq, err := db.QueryWith("(knows|worksFor){1,3}", StrategyMinJoin)
	if err != nil {
		t.Fatal(err)
	}
	par, err := db.QueryParallel("(knows|worksFor){1,3}", StrategyMinJoin, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Pairs) != len(seq.Pairs) {
		t.Errorf("parallel %d pairs, sequential %d", len(par.Pairs), len(seq.Pairs))
	}
	if _, err := db.QueryParallel("knows/(", StrategyNaive, 2); err == nil {
		t.Error("syntax error should surface")
	}
}

func TestSaveAndReopenIndex(t *testing.T) {
	g := graph.ExampleGraph()
	db, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gex.pidx")
	if err := db.SaveIndexV3(path); err != nil {
		t.Fatal(err)
	}

	// Reopen over a freshly built identical graph.
	db2, err := BuildWithIndex(graph.ExampleGraph(), path, Options{HistogramBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	if db2.K() != 2 {
		t.Errorf("reopened K = %d, want 2", db2.K())
	}
	a, err := db.Query("knows/knows|supervisor/worksFor^-")
	if err != nil {
		t.Fatal(err)
	}
	b, err := db2.Query("knows/knows|supervisor/worksFor^-")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Errorf("reopened DB disagrees: %d vs %d pairs", len(b.Pairs), len(a.Pairs))
	}

	// Wrong graph must be rejected.
	other := NewGraph()
	other.AddEdge("x", "likes", "y")
	if _, err := BuildWithIndex(other, path, Options{}); err == nil {
		t.Error("index attached to an incompatible graph")
	}
	if _, err := BuildWithIndex(nil, path, Options{}); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := BuildWithIndex(NewGraph(), filepath.Join(t.TempDir(), "nope"), Options{}); err == nil {
		t.Error("missing index file should fail")
	}
}
