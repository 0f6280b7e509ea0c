package automaton

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/rpq"
)

func pairSet(ps []pathindex.Pair) map[pathindex.Pair]bool {
	m := map[pathindex.Pair]bool{}
	for _, p := range ps {
		m[p] = true
	}
	return m
}

func evalNames(t *testing.T, g *graph.Graph, query string) map[[2]string]bool {
	t.Helper()
	got, err := Eval(rpq.MustParse(query), g)
	if err != nil {
		t.Fatal(err)
	}
	out := map[[2]string]bool{}
	for _, p := range got {
		out[[2]string{g.NodeName(p.Src), g.NodeName(p.Dst)}] = true
	}
	return out
}

func TestSingleStep(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "a", "z")
	g.Freeze()
	got := evalNames(t, g, "a")
	if len(got) != 2 || !got[[2]string{"x", "y"}] || !got[[2]string{"y", "z"}] {
		t.Errorf("a = %v", got)
	}
	inv := evalNames(t, g, "a^-")
	if len(inv) != 2 || !inv[[2]string{"y", "x"}] || !inv[[2]string{"z", "y"}] {
		t.Errorf("a^- = %v", inv)
	}
}

func TestEpsilon(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Freeze()
	got := evalNames(t, g, "()")
	if len(got) != 2 || !got[[2]string{"x", "x"}] || !got[[2]string{"y", "y"}] {
		t.Errorf("ε = %v", got)
	}
}

func TestConcatUnion(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "b", "z")
	g.AddEdge("x", "c", "z")
	g.Freeze()
	got := evalNames(t, g, "a/b|c")
	if len(got) != 1 || !got[[2]string{"x", "z"}] {
		t.Errorf("a/b|c = %v", got)
	}
}

func TestUnboundedStar(t *testing.T) {
	// Cycle x -> y -> z -> x: a* relates everything to everything.
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "a", "z")
	g.AddEdge("z", "a", "x")
	g.Freeze()
	got := evalNames(t, g, "a*")
	if len(got) != 9 {
		t.Errorf("a* on a 3-cycle = %d pairs, want 9", len(got))
	}
	plus := evalNames(t, g, "a+")
	if len(plus) != 9 {
		t.Errorf("a+ on a 3-cycle = %d pairs, want 9", len(plus))
	}
}

func TestBoundedRepeat(t *testing.T) {
	// Chain of 4: n0 -a-> n1 -a-> n2 -a-> n3.
	g := graph.New()
	g.AddEdge("n0", "a", "n1")
	g.AddEdge("n1", "a", "n2")
	g.AddEdge("n2", "a", "n3")
	g.Freeze()
	got := evalNames(t, g, "a{2,3}")
	want := map[[2]string]bool{
		{"n0", "n2"}: true, {"n1", "n3"}: true, {"n0", "n3"}: true,
	}
	if len(got) != len(want) {
		t.Fatalf("a{2,3} = %v", got)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("missing %v", k)
		}
	}
	// a{0,1} includes identity.
	got01 := evalNames(t, g, "a{0,1}")
	if len(got01) != 4+3 {
		t.Errorf("a{0,1} = %d pairs, want 7", len(got01))
	}
}

func TestUnknownLabelIsEmpty(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Freeze()
	got := evalNames(t, g, "nosuch")
	if len(got) != 0 {
		t.Errorf("unknown label = %v, want empty", got)
	}
	// But ε through an option still works.
	got = evalNames(t, g, "nosuch?")
	if len(got) != 2 {
		t.Errorf("nosuch? = %v, want identity", got)
	}
}

func TestSection22SecondExample(t *testing.T) {
	// (supervisor ∪ worksFor ∪ worksFor⁻)^{4,5} on the reconstructed
	// Gex. The paper's hand-computed answer (7 pairs) is a subset; walk
	// semantics adds back-and-forth pairs the paper omitted. We assert
	// the paper's pairs are present.
	g := graph.ExampleGraph()
	got := evalNames(t, g, "(supervisor|worksFor|worksFor^-){4,5}")
	paper := [][2]string{
		{"kim", "kim"}, {"kim", "sue"}, {"sue", "kim"}, {"sue", "sue"},
		{"ada", "zoe"}, {"ada", "ada"}, {"zoe", "ada"},
	}
	for _, p := range paper {
		if !got[p] {
			t.Errorf("paper pair %v missing from answer", p)
		}
	}
	// Walk semantics: (zoe,zoe) via zoe→ada→zoe→ada→zoe.
	if !got[[2]string{"zoe", "zoe"}] {
		t.Errorf("(zoe,zoe) should be present under walk semantics")
	}
}

func TestEvalFrom(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("x", "a", "z")
	g.AddEdge("q", "a", "r")
	g.Freeze()
	nfa, err := Compile(rpq.MustParse("a"), g)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := g.LookupNode("x")
	ts := nfa.EvalFrom(x)
	if len(ts) != 2 {
		t.Errorf("EvalFrom(x) = %v", ts)
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1] >= ts[i] {
			t.Error("EvalFrom not sorted")
		}
	}
}

func TestCompileValidates(t *testing.T) {
	g := graph.New()
	g.Freeze()
	if _, err := Compile(rpq.Repeat{Sub: rpq.Step{Label: "a"}, Min: 5, Max: 2}, g); err == nil {
		t.Error("invalid expression should fail to compile")
	}
}

// TestQuickStarEqualsBoundedExpansion: on small graphs, a* equals the
// union a{0,n} for n = |nodes| — the paper's n(G) observation
// (Section 2.2).
func TestQuickStarEqualsBoundedExpansion(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.New()
		nodes := 2 + r.Intn(8)
		g.EnsureNodes(nodes)
		l := g.Label("a")
		for e := 0; e < nodes*2; e++ {
			g.AddEdgeID(graph.NodeID(r.Intn(nodes)), l, graph.NodeID(r.Intn(nodes)))
		}
		g.Freeze()
		star, err := Eval(rpq.MustParse("a*"), g)
		if err != nil {
			return false
		}
		bounded, err := Eval(rpq.Repeat{Sub: rpq.Step{Label: "a"}, Min: 0, Max: nodes}, g)
		if err != nil {
			return false
		}
		sa, sb := pairSet(star), pairSet(bounded)
		if len(sa) != len(sb) {
			return false
		}
		for k := range sa {
			if !sb[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEvalSortedDeduped(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("x", "b", "y")
	g.Freeze()
	got, err := Eval(rpq.MustParse("a|b"), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("a|b should dedup to one pair, got %v", got)
	}
}
