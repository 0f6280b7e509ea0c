package pathdb

import (
	"testing"

	"repro/internal/automaton"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/workload"
)

// TestWorkloadSoak runs the full Figure-2 workload on a small Advogato
// instance under every strategy and k, unsharded and over 4 shards,
// verifying every answer against the automaton oracle — the end-to-end
// binding of datasets, workload, engine, and baselines.
func TestWorkloadSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	g := datasets.AdvogatoScaled(3, 0.02) // ~130 nodes
	oracle := map[string]int{}
	for _, q := range workload.Advogato() {
		pairs, err := automaton.Eval(q.Expr, g)
		if err != nil {
			t.Fatalf("oracle %s: %v", q.Name, err)
		}
		oracle[q.Name] = len(pairs)
	}
	for _, shards := range []int{0, 4} {
		for k := 1; k <= 3; k++ {
			db, err := Build(g, Options{K: k, HistogramBuckets: 16, Shards: shards})
			if err != nil {
				t.Fatalf("shards=%d k=%d: %v", shards, k, err)
			}
			if got := db.ShardStats().Shards; got != shards {
				t.Fatalf("shards=%d k=%d: built %d shards", shards, k, got)
			}
			for _, q := range workload.Advogato() {
				for _, s := range Strategies() {
					res, err := db.QueryWith(q.Text, s)
					if err != nil {
						t.Fatalf("shards=%d k=%d %s %v: %v", shards, k, q.Name, s, err)
					}
					if len(res.Pairs) != oracle[q.Name] {
						t.Errorf("shards=%d k=%d %s %v: %d pairs, oracle %d",
							shards, k, q.Name, s, len(res.Pairs), oracle[q.Name])
					}
				}
			}
		}
	}
}

// TestWorkloadSingleSourceSoak cross-checks QueryFrom against full
// results for the workload.
func TestWorkloadSingleSourceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	g := datasets.AdvogatoScaled(5, 0.01)
	db, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range workload.Advogato()[:4] {
		full, err := db.Query(q.Text)
		if err != nil {
			t.Fatal(err)
		}
		bySrc := map[string]int{}
		for _, p := range full.Names {
			bySrc[p[0]]++
		}
		for n := 0; n < g.NumNodes(); n += 7 {
			src := g.NodeName(graph.NodeID(n))
			targets, err := db.QueryFrom(q.Text, src)
			if err != nil {
				t.Fatal(err)
			}
			if len(targets) != bySrc[src] {
				t.Errorf("%s from %s: %d targets, full query row has %d",
					q.Name, src, len(targets), bySrc[src])
			}
		}
	}
}
