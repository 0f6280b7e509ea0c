package reachability

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/rpq"
)

func TestChainReachability(t *testing.T) {
	g := graph.New()
	g.AddEdge("n0", "a", "n1")
	g.AddEdge("n1", "a", "n2")
	g.AddEdge("n2", "a", "n3")
	g.Freeze()
	l, _ := g.LookupLabel("a")
	ix, err := Build(g, []graph.DirLabel{graph.Fwd(l)})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumSCCs() != 4 {
		t.Errorf("chain SCCs = %d, want 4", ix.NumSCCs())
	}
	n := func(s string) graph.NodeID { id, _ := g.LookupNode(s); return id }
	if !ix.Reachable(n("n0"), n("n3")) {
		t.Error("n0 should reach n3")
	}
	if ix.Reachable(n("n3"), n("n0")) {
		t.Error("n3 should not reach n0")
	}
	if !ix.Reachable(n("n2"), n("n2")) {
		t.Error("reflexivity lost")
	}
	if got := ix.Pairs(); len(got) != 10 {
		t.Errorf("chain pairs = %d, want 10", len(got))
	}
}

func TestCycleCollapses(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "a", "z")
	g.AddEdge("z", "a", "x")
	g.AddEdge("z", "a", "w") // tail off the cycle
	g.Freeze()
	l, _ := g.LookupLabel("a")
	ix, err := Build(g, []graph.DirLabel{graph.Fwd(l)})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumSCCs() != 2 {
		t.Errorf("SCCs = %d, want 2 (cycle + tail)", ix.NumSCCs())
	}
	if got := ix.Pairs(); len(got) != 13 {
		// 3x3 within the cycle + 3 into w + w itself.
		t.Errorf("pairs = %d, want 13", len(got))
	}
}

func TestMultiLabel(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "b", "z")
	g.Freeze()
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	ix, err := Build(g, []graph.DirLabel{graph.Fwd(a), graph.Fwd(b)})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := g.LookupNode("x")
	z, _ := g.LookupNode("z")
	if !ix.Reachable(x, z) {
		t.Error("x should reach z via a then b")
	}
	// Single-label index must not mix labels.
	ixa, err := Build(g, []graph.DirLabel{graph.Fwd(a)})
	if err != nil {
		t.Fatal(err)
	}
	if ixa.Reachable(x, z) {
		t.Error("a-only index should not reach z")
	}
}

func TestBuildValidation(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	if _, err := Build(g, []graph.DirLabel{graph.Fwd(0)}); err == nil {
		t.Error("unfrozen graph should fail")
	}
	g.Freeze()
	if _, err := Build(g, nil); err == nil {
		t.Error("empty label set should fail")
	}
}

func TestCanHandle(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.AddEdge("x", "b", "y")
	g.Freeze()
	for query, want := range map[string]bool{
		"a*":          true,
		"(a|b)*":      true,
		"(a|b^-)*":    true,
		"a":           false,
		"a+":          false,
		"a{2,4}":      false,
		"(a/b)*":      false,
		"(a|b/a)*":    false,
		"a*/b":        false,
		"(nolabel)*":  false,
		"(a|nosuch)*": false,
	} {
		_, got := CanHandle(rpq.MustParse(query), g)
		if got != want {
			t.Errorf("CanHandle(%q) = %v, want %v", query, got, want)
		}
	}
}

func TestEvalSupportedAndUnsupported(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Freeze()
	got, err := Eval(rpq.MustParse("a*"), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Errorf("a* = %d pairs, want 3", len(got))
	}
	if _, err := Eval(rpq.MustParse("a/a"), g); err == nil {
		t.Error("general RPQ should be rejected by the reachability approach")
	}
}

// TestQuickAgreesWithAutomaton: on random graphs, (a|b)* via the
// reachability index equals the automaton's answer.
func TestQuickAgreesWithAutomaton(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := graph.New()
		nodes := 3 + r.Intn(15)
		g.EnsureNodes(nodes)
		for _, name := range []string{"a", "b"} {
			l := g.Label(name)
			for e := 0; e < nodes; e++ {
				g.AddEdgeID(graph.NodeID(r.Intn(nodes)), l, graph.NodeID(r.Intn(nodes)))
			}
		}
		g.Freeze()
		query := rpq.MustParse("(a|b^-)*")
		want, err := automaton.Eval(query, g)
		if err != nil {
			return false
		}
		got, err := Eval(query, g)
		if err != nil {
			return false
		}
		if len(got) != len(want) {
			t.Logf("seed %d: reach %d pairs, automaton %d", seed, len(got), len(want))
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDeepGraphNoStackOverflow(t *testing.T) {
	// A 30k-node chain would blow a recursive Tarjan (default goroutine
	// stacks give out around a few thousand frames under -race); the
	// iterative implementation must handle it. Kept moderate because the
	// descendant bitsets are quadratic in SCC count on a chain.
	g := graph.New()
	const n = 30_000
	g.EnsureNodes(n)
	l := g.Label("a")
	for i := 0; i < n-1; i++ {
		g.AddEdgeID(graph.NodeID(i), l, graph.NodeID(i+1))
	}
	g.Freeze()
	ix, err := Build(g, []graph.DirLabel{graph.Fwd(l)})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumSCCs() != n {
		t.Errorf("SCCs = %d, want %d", ix.NumSCCs(), n)
	}
	if !ix.Reachable(0, n-1) {
		t.Error("chain head should reach tail")
	}
}
