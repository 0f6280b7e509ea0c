package exec

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

func randomGraph(r *rand.Rand, nodes, edgesPerLabel, labels int) *graph.Graph {
	g := graph.New()
	g.EnsureNodes(nodes)
	names := []string{"a", "b", "c"}
	for l := 0; l < labels; l++ {
		lid := g.Label(names[l])
		for e := 0; e < edgesPerLabel; e++ {
			g.AddEdgeID(graph.NodeID(r.Intn(nodes)), lid, graph.NodeID(r.Intn(nodes)))
		}
	}
	g.Freeze()
	return g
}

func buildIndex(t testing.TB, g *graph.Graph, k int) *pathindex.Index {
	t.Helper()
	ix, err := pathindex.Build(g, k, pathindex.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// bruteCompose computes the relation of a full path by nested traversal.
func bruteCompose(g *graph.Graph, p pathindex.Path) map[Pair]bool {
	set := map[Pair]bool{}
	var walk func(start, cur graph.NodeID, depth int)
	walk = func(start, cur graph.NodeID, depth int) {
		if depth == len(p) {
			set[Pair{Src: start, Dst: cur}] = true
			return
		}
		for _, next := range g.Out(cur, p[depth]) {
			walk(start, next, depth+1)
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		walk(graph.NodeID(n), graph.NodeID(n), 0)
	}
	return set
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Src != ps[j].Src {
			return ps[i].Src < ps[j].Src
		}
		return ps[i].Dst < ps[j].Dst
	})
}

func asSet(ps []Pair) map[Pair]bool {
	m := make(map[Pair]bool, len(ps))
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func setsEqual(a, b map[Pair]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func TestIndexScanOrdering(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(r, 20, 50, 2)
	ix := buildIndex(t, g, 2)
	p := pathindex.Path{graph.Fwd(0), graph.Fwd(1)}

	fwd := Run(NewIndexScan(ix, p))
	for i := 1; i < len(fwd); i++ {
		if fwd[i-1].Src > fwd[i].Src || (fwd[i-1].Src == fwd[i].Src && fwd[i-1].Dst >= fwd[i].Dst) {
			t.Fatalf("scan out of (src,dst) order at %d", i)
		}
	}
	if !setsEqual(asSet(fwd), bruteCompose(g, p)) {
		t.Error("scan disagrees with brute composition")
	}
}

func TestGroupEqualsHashJoin(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := randomGraph(r, 25, 60, 2)
	ix := buildIndex(t, g, 2)
	left := pathindex.Path{graph.Fwd(0), graph.Inv(1)}
	right := pathindex.Path{graph.Fwd(1), graph.Fwd(0)}

	group := Run(NewGroupJoin(
		NewIndexScan(ix, left),
		NewIndexScan(ix, right),
		DefaultBatchSize,
	))
	hashLB := Run(NewHashJoin(
		NewIndexScan(ix, left),
		NewIndexScan(ix, right),
		false,
	))
	hashRB := Run(NewHashJoin(
		NewIndexScan(ix, left),
		NewIndexScan(ix, right),
		true,
	))
	want := bruteCompose(g, append(append(pathindex.Path{}, left...), right...))
	if len(group) != len(want) || !setsEqual(asSet(group), want) {
		t.Errorf("group join: %d pairs (%d distinct), want %d", len(group), len(asSet(group)), len(want))
	}
	if !setsEqual(asSet(hashLB), want) {
		t.Errorf("hash join (build left): %d pairs, want %d", len(asSet(hashLB)), len(want))
	}
	if !setsEqual(asSet(hashRB), want) {
		t.Errorf("hash join (build right): %d pairs, want %d", len(asSet(hashRB)), len(want))
	}
}

func TestJoinEmptyInputs(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Label("b") // no edges
	g.Freeze()
	ix := buildIndex(t, g, 1)
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	got := Run(NewGroupJoin(
		NewIndexScan(ix, pathindex.Path{graph.Fwd(a)}),
		NewIndexScan(ix, pathindex.Path{graph.Fwd(b)}),
		DefaultBatchSize,
	))
	if len(got) != 0 {
		t.Errorf("group join with empty right = %v", got)
	}
	got = Run(NewGroupJoin(
		NewIndexScan(ix, pathindex.Path{graph.Fwd(b)}),
		NewIndexScan(ix, pathindex.Path{graph.Fwd(a)}),
		DefaultBatchSize,
	))
	if len(got) != 0 {
		t.Errorf("group join with empty left = %v", got)
	}
	got = Run(NewHashJoin(
		NewIndexScan(ix, pathindex.Path{graph.Fwd(b)}),
		NewIndexScan(ix, pathindex.Path{graph.Fwd(a)}),
		false,
	))
	if len(got) != 0 {
		t.Errorf("hash join with empty left = %v", got)
	}
}

func TestIdentityScan(t *testing.T) {
	g := graph.New()
	g.EnsureNodes(4)
	g.Freeze()
	got := Run(NewIdentityScan(g))
	if len(got) != 4 {
		t.Fatalf("identity scan: %d rows, want 4", len(got))
	}
	for i, pr := range got {
		if pr.Src != graph.NodeID(i) || pr.Dst != graph.NodeID(i) {
			t.Errorf("identity[%d] = %v", i, pr)
		}
	}
}

func TestUnionDistinct(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("x", "b", "y") // same pair under a different label
	g.AddEdge("y", "a", "z")
	g.Freeze()
	ix := buildIndex(t, g, 1)
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	u := NewUnionDistinct([]Operator{
		NewIndexScan(ix, pathindex.Path{graph.Fwd(a)}),
		NewIndexScan(ix, pathindex.Path{graph.Fwd(b)}),
	})
	got := Run(u)
	if len(got) != 2 {
		t.Errorf("union-distinct = %v, want 2 distinct pairs", got)
	}
	if u.Rows() != 2 {
		t.Errorf("Rows = %d, want 2", u.Rows())
	}
}

func TestDistinct(t *testing.T) {
	g := graph.New()
	// x -a-> h1 -b-> y and x -a-> h2 -b-> y: the join yields (x,y) twice.
	g.AddEdge("x", "a", "h1")
	g.AddEdge("x", "a", "h2")
	g.AddEdge("h1", "b", "y")
	g.AddEdge("h2", "b", "y")
	g.Freeze()
	ix := buildIndex(t, g, 1)
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	join := NewHashJoin(
		NewIndexScan(ix, pathindex.Path{graph.Fwd(a)}),
		NewIndexScan(ix, pathindex.Path{graph.Fwd(b)}),
		false,
	)
	got := Run(NewDistinct(join))
	if len(got) != 1 {
		t.Errorf("distinct join output = %v, want one (x,y)", got)
	}
}

func TestBuildFromPlanMatchesBrute(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := randomGraph(r, 25, 70, 3)
	k := 2
	ix := buildIndex(t, g, k)
	h := histogram.BuildExact(ix)
	pl := &plan.Planner{K: k, Hist: h, NumNodes: g.NumNodes()}

	d := pathindex.Path{graph.Fwd(0), graph.Inv(1), graph.Fwd(2), graph.Fwd(0), graph.Inv(0)}
	want := bruteCompose(g, d)
	for _, s := range plan.Strategies() {
		p, err := pl.PlanPaths([]pathindex.Path{d}, false, s)
		if err != nil {
			t.Fatal(err)
		}
		op, err := Build(p, ix, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := asSet(Run(op))
		if !setsEqual(got, want) {
			t.Errorf("%v: %d pairs, want %d", s, len(got), len(want))
		}
	}
}

// TestQuickPlansMatchBrute: random disjuncts on random graphs evaluate
// identically under every strategy, and identically to brute composition.
func TestQuickPlansMatchBrute(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 12, 25, 2)
		k := 1 + r.Intn(3)
		ix, err := pathindex.Build(g, k, pathindex.BuildOptions{})
		if err != nil {
			return false
		}
		h, err := histogram.BuildEquiDepth(ix, 1+r.Intn(16))
		if err != nil {
			return false
		}
		pl := &plan.Planner{K: k, Hist: h, NumNodes: g.NumNodes(), HashOnly: r.Intn(4) == 0}
		n := 1 + r.Intn(6)
		d := make(pathindex.Path, n)
		for i := range d {
			l := graph.LabelID(r.Intn(2))
			if r.Intn(2) == 0 {
				d[i] = graph.Fwd(l)
			} else {
				d[i] = graph.Inv(l)
			}
		}
		want := bruteCompose(g, d)
		for _, s := range plan.Strategies() {
			p, err := pl.PlanPaths([]pathindex.Path{d}, false, s)
			if err != nil {
				t.Logf("plan %v: %v", s, err)
				return false
			}
			op, err := Build(p, ix, BuildOptions{})
			if err != nil {
				t.Logf("build %v: %v", s, err)
				return false
			}
			if !setsEqual(asSet(Run(op)), want) {
				t.Logf("seed %d strategy %v: wrong result for %v (k=%d)", seed, s, d, k)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestCollectStats(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "b", "z")
	g.Freeze()
	ix := buildIndex(t, g, 1)
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	join := NewGroupJoin(
		NewIndexScan(ix, pathindex.Path{graph.Fwd(a)}),
		NewIndexScan(ix, pathindex.Path{graph.Fwd(b)}),
		DefaultBatchSize,
	)
	u := NewUnionDistinct([]Operator{join})
	Run(u)
	st := CollectStats(u)
	if st.RowsByOperator["index-scan"] != 2 {
		t.Errorf("index-scan rows = %d, want 2", st.RowsByOperator["index-scan"])
	}
	if st.RowsByOperator["group-join"] != 1 {
		t.Errorf("group-join rows = %d, want 1", st.RowsByOperator["group-join"])
	}
	if st.RowsByOperator["union-distinct"] != 1 {
		t.Errorf("union rows = %d, want 1", st.RowsByOperator["union-distinct"])
	}
	if st.TotalRows != 4 {
		t.Errorf("total rows = %d, want 4", st.TotalRows)
	}
}

func TestBuildRejectsOversizedSegment(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Freeze()
	ix := buildIndex(t, g, 1)
	a, _ := g.LookupLabel("a")
	seg := pathindex.Path{graph.Fwd(a), graph.Fwd(a)}
	p := &plan.Plan{Disjuncts: []plan.Node{&plan.Scan{Segment: seg}}}
	if _, err := Build(p, ix, BuildOptions{}); err == nil {
		t.Error("segment longer than k should be rejected")
	}
}

func TestEpsilonPlanExecution(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Freeze()
	ix := buildIndex(t, g, 1)
	h := histogram.BuildExact(ix)
	pl := &plan.Planner{K: 1, Hist: h, NumNodes: g.NumNodes()}
	a, _ := g.LookupLabel("a")
	p, err := pl.PlanPaths([]pathindex.Path{{graph.Fwd(a)}}, true, plan.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(p, ix, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := Run(op)
	// identity (x,x),(y,y) plus (x,y).
	if len(got) != 3 {
		t.Errorf("ε|a = %v, want 3 pairs", got)
	}
	sortPairs(got)
}
