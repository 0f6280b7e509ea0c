package exec

import (
	"math/rand"
	"testing"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rpq"
)

// rootDedups collects the deduplicating operators a result pair passes
// through on its way out of the tree: those reachable from the root
// through other deduplicating operators and gathers only. Anything below
// a join, scan or closure is an intermediate dedup and does not count.
func rootDedups(op Operator, depth int, visit func(op Operator, depth int)) {
	switch v := op.(type) {
	case *Distinct:
		visit(v, depth+1)
		rootDedups(v.child, depth+1, visit)
	case *UnionDistinct:
		visit(v, depth+1)
		for _, k := range v.kids {
			rootDedups(k, depth+1, visit)
		}
	case *Gather:
		for _, k := range v.kids {
			rootDedups(k, depth, visit)
		}
	}
}

// TestDedupPlacement builds the plan shapes Build treats differently —
// one scan, one join, several disjuncts, the three closure modes — over
// unsharded and 4-shard storage, with and without per-join dedup, and
// checks three things: the result equals the automaton oracle, it holds
// no pair twice, and no pair went through more than one root-level
// deduplicating operator (so those operators emitted, in total, exactly
// the result or — under a duplicate-free root — nothing at all).
func TestDedupPlacement(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := randomGraph(r, 40, 90, 3)
	const k = 2
	ix := buildIndex(t, g, k)
	sharded := buildShardedIndex(t, g, k, 4)
	hist := histogram.BuildExact(ix)
	a, b, c := graph.Fwd(0), graph.Fwd(1), graph.Fwd(2)
	seg := func(p ...graph.DirLabel) plan.SeqElem { return plan.SeqElem{Seg: pathindex.Path(p)} }
	star := func(body ...plan.Seq) plan.SeqElem { return plan.SeqElem{Star: body} }
	seq := func(e ...plan.SeqElem) plan.Seq { return plan.Seq{Elems: e} }

	cases := []struct {
		name     string
		query    string // the oracle's input; paths/closures spell the same query
		paths    []pathindex.Path
		closures []plan.Seq
		epsilon  bool
		planner  plan.Planner // K, Hist, NumNodes and Shards are filled in
		// noUnion says when Build must return the lone disjunct as is,
		// its root emitting a set by itself: "always", "perJoin" or never.
		noUnion string
	}{
		{name: "single-scan", query: "a/b", paths: []pathindex.Path{{a, b}}, noUnion: "always"},
		{name: "single-join", query: "a/b/c", paths: []pathindex.Path{{a, b, c}}, noUnion: "perJoin"},
		{name: "multi-disjunct", query: "a/b/c|b^-/a|c|()", epsilon: true,
			paths: []pathindex.Path{{a, b, c}, {graph.Inv(1), a}, {c}}},
		{name: "closure-fixpoint", query: "a/(b/c)*",
			closures: []plan.Seq{seq(seg(a), star(seq(seg(b, c))))}, noUnion: "always"},
		{name: "closure-streamed", query: "(b/c)*", planner: plan.Planner{StreamClosures: true},
			closures: []plan.Seq{seq(star(seq(seg(b, c))))}, noUnion: "always"},
		{name: "closure-reach", query: "(a|b^-)*",
			closures: []plan.Seq{seq(star(seq(seg(a)), seq(seg(graph.Inv(1)))))}, noUnion: "always"},
		{name: "closure-and-path", query: "a/(b/c)*|c/a/b",
			paths:    []pathindex.Path{{c, a, b}},
			closures: []plan.Seq{seq(seg(a), star(seq(seg(b, c))))}},
	}
	for _, tc := range cases {
		expr, err := rpq.Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		oracle, err := automaton.Eval(expr, g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := asSet(oracle)
		for _, shards := range []int{0, 4} {
			pl := tc.planner
			pl.K, pl.Hist, pl.NumNodes, pl.Shards = k, hist, g.NumNodes(), shards
			p, err := pl.PlanQuery(tc.paths, tc.closures, tc.epsilon, plan.MinSupport)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var storage pathindex.Storage = ix
			if shards > 0 {
				storage = sharded
			}
			for _, perJoin := range []bool{true, false} {
				op, err := Build(p, storage, BuildOptions{PerJoinDedup: perJoin, Reach: reachProvider{g}})
				if err != nil {
					t.Fatalf("%s shards=%d perJoin=%v: %v", tc.name, shards, perJoin, err)
				}
				got := Run(op)
				if len(got) != len(want) || !setsEqual(asSet(got), want) {
					t.Errorf("%s shards=%d perJoin=%v: %d pairs (%d distinct), oracle %d",
						tc.name, shards, perJoin, len(got), len(asSet(got)), len(want))
					continue
				}
				rootRows := 0
				rootDedups(op, 0, func(d Operator, depth int) {
					rootRows += d.Rows()
					if depth > 1 {
						t.Errorf("%s shards=%d perJoin=%v: %s stacked %d deep at the root",
							tc.name, shards, perJoin, d.Name(), depth)
					}
				})
				st := CollectStats(op)
				wantUnion := len(got)
				if tc.noUnion == "always" || tc.noUnion == "perJoin" && perJoin {
					wantUnion = 0
				}
				if st.RowsByOperator["union-distinct"] != wantUnion {
					t.Errorf("%s shards=%d perJoin=%v: union-distinct emitted %d rows, want %d; rows by operator %v",
						tc.name, shards, perJoin, st.RowsByOperator["union-distinct"], wantUnion, st.RowsByOperator)
				}
				if rootRows != len(got) && !(rootRows == 0 && duplicateFree(op)) {
					t.Errorf("%s shards=%d perJoin=%v: root-level dedups emitted %d rows for %d result pairs; rows by operator %v",
						tc.name, shards, perJoin, rootRows, len(got), st.RowsByOperator)
				}
			}
		}
	}
}
