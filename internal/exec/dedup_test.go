package exec

import (
	"fmt"
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

// hashDedups collects the operators of the tree that dedup through a
// pairSet: every Distinct, and every UnionDistinct not merging by source.
func hashDedups(op Operator) []Operator {
	var out []Operator
	switch v := op.(type) {
	case *Distinct:
		out = append(out, v)
	case *UnionDistinct:
		if !v.bySource {
			out = append(out, v)
		}
	}
	if hc, ok := op.(interface{ children() []Operator }); ok {
		for _, c := range hc.children() {
			out = append(out, hashDedups(c)...)
		}
	}
	return out
}

// twoRouteGraph is a graph on which a/b/c reaches (s,d) along two
// routes, s→x1→y1→d and s→x2→y2→d, whose middle nodes the 4-shard hash
// partitioner assigns to different shards: whichever node a join of
// a/b/c joins on, it meets (s,d) twice, through rows that different
// shards hold.
func twoRouteGraph() *graph.Graph {
	part := pathindex.NewHashPartitioner(4)
	g := graph.New()
	g.EnsureNodes(32)
	la, lb, lc := g.Label("a"), g.Label("b"), g.Label("c")
	// Pick x1,x2 and y1,y2 among nodes 2.. in different shards.
	var mids []graph.NodeID
	for id := graph.NodeID(2); len(mids) < 4; id++ {
		if len(mids)%2 == 0 || part.ShardOf(id) != part.ShardOf(mids[len(mids)-1]) {
			mids = append(mids, id)
		}
	}
	s, d := graph.NodeID(0), graph.NodeID(1)
	for _, r := range [][2]graph.NodeID{{mids[0], mids[2]}, {mids[1], mids[3]}} {
		g.AddEdgeID(s, la, r[0])
		g.AddEdgeID(r[0], lb, r[1])
		g.AddEdgeID(r[1], lc, d)
	}
	g.Freeze()
	return g
}

// TestDedupPlacement builds the plan shapes Build treats differently —
// one scan, one join, several disjuncts, a closure and a nested one — under
// every strategy, over unsharded storage and 1/2/4/7 shards, with and
// without per-join dedup, sequential and with the disjuncts fanned out
// over 2 or 3 workers, and
// checks four things: the result equals the automaton oracle, it holds
// no pair twice, no pair went through more than one root-level
// deduplicating operator (so those operators emitted, in total, exactly
// the result or — under a duplicate-free root — nothing at all), and
// only the root union hashes, and only over a Gather or shard streams:
// there is no Distinct, and over one run with the disjuncts drained in
// turn the root union merges by source.
func TestDedupPlacement(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	random := randomGraph(r, 40, 90, 3)
	const k = 2
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
		// noUnion says Build must return the lone disjunct as is, its
		// root emitting a set by itself.
		noUnion bool
		g       *graph.Graph // nil: the random graph
	}{
		{name: "single-scan", query: "a/b", paths: []pathindex.Path{{a, b}}, noUnion: true},
		{name: "single-join", query: "a/b/c", paths: []pathindex.Path{{a, b, c}}, noUnion: true},
		{name: "join-two-shard-routes", query: "a/b/c", paths: []pathindex.Path{{a, b, c}}, noUnion: true,
			g: twoRouteGraph()},
		{name: "multi-disjunct", query: "a/b/c|b^-/a|c|()", epsilon: true,
			paths: []pathindex.Path{{a, b, c}, {graph.Inv(1), a}, {c}}},
		{name: "closure", query: "a/(b/c)*",
			closures: []plan.Seq{seq(seg(a), star(seq(seg(b, c))))}, noUnion: true},
		{name: "nested-closure", query: "(a/b*)*",
			closures: []plan.Seq{seq(star(seq(seg(a), star(seq(seg(b))))))}, noUnion: true},
		{name: "closure-and-path", query: "a/(b/c)*|c/a/b",
			paths:    []pathindex.Path{{c, a, b}},
			closures: []plan.Seq{seq(seg(a), star(seq(seg(b, c))))}},
	}
	for _, tc := range cases {
		g := random
		if tc.g != nil {
			g = tc.g
		}
		ix := buildIndex(t, g, k)
		hist := histogram.BuildExact(ix)
		expr, err := rpq.Parse(tc.query)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		oracle, err := automaton.Eval(expr, g)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := asSet(oracle)
		for _, shards := range []int{0, 1, 2, 4, 7} {
			var storage pathindex.Storage = ix
			if shards > 0 {
				storage = buildShardedIndex(t, g, k, shards)
			}
			for _, strat := range plan.Strategies() {
				pl := plan.Planner{K: k, Hist: hist, NumNodes: g.NumNodes()}
				p, err := pl.PlanQuery(tc.paths, tc.closures, tc.epsilon, strat)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				for _, workers := range []int{0, 2, 3} {
					for _, perJoin := range []bool{true, false} {
						where := fmt.Sprintf("%s %v shards=%d perJoin=%v workers=%d", tc.name, strat, shards, perJoin, workers)
						op, err := Build(p, storage, BuildOptions{PerJoinDedup: perJoin, Workers: workers})
						if err != nil {
							t.Fatalf("%s: %v", where, err)
						}
						got := Run(op)
						if len(got) != len(want) || !setsEqual(asSet(got), want) {
							t.Errorf("%s: %d pairs (%d distinct), oracle %d", where, len(got), len(asSet(got)), len(want))
							continue
						}
						fanned := false
						if u, ok := op.(*UnionDistinct); ok && len(u.kids) == 1 {
							_, fanned = u.kids[0].(*Gather)
						}
						if len(p.Disjuncts) > 1 && fanned != (workers > 1) {
							t.Errorf("%s: disjuncts under one Gather = %v", where, fanned)
						}
						hashed := hashDedups(op)
						if len(hashed) > 1 || len(hashed) == 1 && (hashed[0] != op || shards <= 1 && !fanned) {
							t.Errorf("%s: %d operators dedup through a hash set, the first %s", where, len(hashed), hashed[0].Name())
						}
						if u, ok := op.(*UnionDistinct); ok && u.bySource != (shards <= 1 && !fanned) {
							t.Errorf("%s: root union by source = %v", where, u.bySource)
						}
						rootRows := 0
						rootDedups(op, 0, func(d Operator, depth int) {
							rootRows += d.Rows()
							if depth > 1 {
								t.Errorf("%s: %s stacked %d deep at the root", where, d.Name(), depth)
							}
						})
						st := CollectStats(op)
						// The noUnion shapes are those of k=2 segmentations; naive
						// plans single labels, so its a/b is already a join.
						wantUnion := len(got)
						if tc.noUnion {
							wantUnion = 0
						}
						if strat != plan.Naive && st.RowsByOperator["union-distinct"] != wantUnion {
							t.Errorf("%s: union-distinct emitted %d rows, want %d; rows by operator %v",
								where, st.RowsByOperator["union-distinct"], wantUnion, st.RowsByOperator)
						}
						if rootRows != len(got) && !(rootRows == 0 && duplicateFree(op)) {
							t.Errorf("%s: root-level dedups emitted %d rows for %d result pairs; rows by operator %v",
								where, rootRows, len(got), st.RowsByOperator)
						}
					}
				}
			}
		}
	}
}
