package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rpq"
)

func newTestEngine(t testing.TB, g *graph.Graph, k int) *Engine {
	t.Helper()
	e, err := NewEngine(g, Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func pairSet(ps []pathindex.Pair) map[pathindex.Pair]bool {
	m := map[pathindex.Pair]bool{}
	for _, p := range ps {
		m[p] = true
	}
	return m
}

// namedPairs is NamedPairs for tests, whose indexes match their graphs.
func namedPairs(e *Engine, r *Result) [][2]string {
	names, err := e.NamedPairs(r.Pairs)
	if err != nil {
		panic(err)
	}
	return names
}

func namesOf(e *Engine, r *Result) map[[2]string]bool {
	out := map[[2]string]bool{}
	for _, p := range namedPairs(e, r) {
		out[p] = true
	}
	return out
}

func randomGraph(r *rand.Rand, nodes, edgesPerLabel int, labels []string) *graph.Graph {
	g := graph.New()
	g.EnsureNodes(nodes)
	for _, name := range labels {
		l := g.Label(name)
		for e := 0; e < edgesPerLabel; e++ {
			g.AddEdgeID(graph.NodeID(r.Intn(nodes)), l, graph.NodeID(r.Intn(nodes)))
		}
	}
	g.Freeze()
	return g
}

func TestNewEngineValidation(t *testing.T) {
	g := graph.ExampleGraph()
	if _, err := NewEngine(g, Options{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
	if _, err := NewEngine(g, Options{K: 2, MaxIndexEntries: 1}); err == nil {
		t.Error("tiny MaxIndexEntries should fail")
	}
	if _, err := NewEngine(g, Options{K: 2, HistogramBuckets: -1}); err == nil {
		t.Error("negative bucket count should fail")
	}
}

func TestSection22FirstExampleEndToEnd(t *testing.T) {
	// supervisor ∘ worksFor⁻ (Gex) = {(kim, sue)} — the paper's first
	// worked query, through the full engine under every strategy.
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	for _, s := range plan.Strategies() {
		r, err := e.EvalQuery("supervisor/worksFor^-", s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := namesOf(e, r)
		if len(got) != 1 || !got[[2]string{"kim", "sue"}] {
			t.Errorf("%v: supervisor/worksFor^- = %v, want {(kim,sue)}", s, got)
		}
	}
}

func TestSection22SecondExampleEndToEnd(t *testing.T) {
	// (supervisor ∪ worksFor ∪ worksFor⁻)^{4,5} on the reconstructed
	// Gex: the engine must agree exactly with the automaton oracle, and
	// the paper's seven hand-listed pairs must be present (the full
	// answer is larger under walk semantics).
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 3)
	query := "(supervisor|worksFor|worksFor^-){4,5}"
	want, err := automaton.Eval(rpq.MustParse(query), g)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range plan.Strategies() {
		r, err := e.EvalQuery(query, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(r.Pairs) != len(want) {
			t.Errorf("%v: %d pairs, oracle %d", s, len(r.Pairs), len(want))
		}
		got := namesOf(e, r)
		for _, p := range [][2]string{
			{"kim", "kim"}, {"kim", "sue"}, {"sue", "kim"}, {"sue", "sue"},
			{"ada", "zoe"}, {"ada", "ada"}, {"zoe", "ada"},
		} {
			if !got[p] {
				t.Errorf("%v: paper pair %v missing", s, p)
			}
		}
	}
}

func TestWorkedExampleQueryEndToEnd(t *testing.T) {
	// The Section 4 example R = k ◦ (k◦w)^{2,4} ◦ w on Gex, all
	// strategies vs the oracle.
	g := graph.ExampleGraph()
	query := "knows/(knows/worksFor){2,4}/worksFor"
	want, err := automaton.Eval(rpq.MustParse(query), g)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		e := newTestEngine(t, g, k)
		for _, s := range plan.Strategies() {
			r, err := e.EvalQuery(query, s)
			if err != nil {
				t.Fatalf("k=%d %v: %v", k, s, err)
			}
			if len(pairSet(r.Pairs)) != len(want) {
				t.Errorf("k=%d %v: %d pairs, oracle %d", k, s, len(r.Pairs), len(want))
			}
		}
	}
}

func TestEpsilonQueries(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	r, err := e.EvalQuery("()", plan.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Pairs) != g.NumNodes() {
		t.Errorf("ε = %d pairs, want %d", len(r.Pairs), g.NumNodes())
	}
	if !r.Stats.HasEpsilon {
		t.Error("HasEpsilon not reported")
	}
	r, err = e.EvalQuery("knows?", plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := automaton.Eval(rpq.MustParse("knows?"), g)
	if len(r.Pairs) != len(want) {
		t.Errorf("knows? = %d pairs, oracle %d", len(r.Pairs), len(want))
	}
}

func TestUnknownLabelDropped(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	r, err := e.EvalQuery("knows/nosuchlabel|knows", plan.MinJoin)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.DroppedEmpty != 1 {
		t.Errorf("DroppedEmpty = %d, want 1", r.Stats.DroppedEmpty)
	}
	want, _ := automaton.Eval(rpq.MustParse("knows"), g)
	if len(r.Pairs) != len(want) {
		t.Errorf("result %d pairs, want %d", len(r.Pairs), len(want))
	}
}

func TestUnboundedStarUsesNodeCountBound(t *testing.T) {
	// knows* must equal the oracle on a cycle with a tail: the closure
	// needs no bound, n(G) or otherwise.
	g := graph.New()
	g.AddEdge("a", "knows", "b")
	g.AddEdge("b", "knows", "c")
	g.AddEdge("c", "knows", "a")
	g.AddEdge("c", "knows", "d")
	g.Freeze()
	e := newTestEngine(t, g, 2)
	want, err := automaton.Eval(rpq.MustParse("knows*"), g)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.EvalQuery("knows*", plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairSet(r.Pairs)) != len(want) {
		t.Errorf("knows* = %d pairs, oracle %d", len(r.Pairs), len(want))
	}
}

func TestParseErrorSurfaces(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 1)
	if _, err := e.EvalQuery("knows/", plan.Naive); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := e.Explain("knows/", plan.Naive); err == nil {
		t.Error("Explain should surface syntax errors")
	}
}

func TestExpansionLimitSurfaces(t *testing.T) {
	g := graph.ExampleGraph()
	e, err := NewEngine(g, Options{K: 1, MaxDisjuncts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.EvalQuery("(knows|worksFor){5}", plan.Naive); err == nil {
		t.Error("disjunct explosion should surface as an error")
	}
}

func TestExplainOutput(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 3)
	out, err := e.Explain("knows/(knows/worksFor){2,4}/worksFor", plan.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"semiNaive", "group-join", "scan"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	// Every unbound join is a group join.
	for _, gone := range []string{"hash-join"} {
		if strings.Contains(out, gone) {
			t.Errorf("Explain has %q:\n%s", gone, out)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	r, err := e.EvalQuery("knows/knows|worksFor", plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats
	if st.Disjuncts != 2 {
		t.Errorf("Disjuncts = %d, want 2", st.Disjuncts)
	}
	if st.PlanCost <= 0 || st.PlanCard < 0 {
		t.Errorf("plan estimates missing: cost=%f card=%f", st.PlanCost, st.PlanCard)
	}
	if st.ResultPairs != len(r.Pairs) {
		t.Errorf("ResultPairs = %d, len = %d", st.ResultPairs, len(r.Pairs))
	}
	if st.OperatorRows["index-scan"] == 0 {
		t.Error("operator rows not collected")
	}
	if st.ExecTime <= 0 {
		t.Error("ExecTime not measured")
	}
}

func TestAblationsPreserveResults(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	g := randomGraph(r, 30, 80, []string{"a", "b"})
	query := "a/(b|a^-)/b{1,2}"
	base := newTestEngine(t, g, 2)
	want, err := base.EvalQuery(query, plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]Options{
		"hash-only":       {K: 2, HashOnly: true},
		"no-interm-dedup": {K: 2, NoIntermediateDedup: true},
		"no-derived-inv":  {K: 2, NoDerivedInverses: true},
		"equidepth-8":     {K: 2, HistogramBuckets: 8},
		"equidepth-1":     {K: 2, HistogramBuckets: 1},
		"combined":        {K: 2, HashOnly: true, NoIntermediateDedup: true, HistogramBuckets: 4},
	} {
		e, err := NewEngine(g, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := e.EvalQuery(query, plan.MinSupport)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pairSet(got.Pairs)) != len(pairSet(want.Pairs)) {
			t.Errorf("%s: %d pairs, want %d", name, len(got.Pairs), len(want.Pairs))
		}
	}
}

func TestPreparedReexecution(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	prep, err := e.Compile(rpq.MustParse("knows/knows"), plan.MinJoin)
	if err != nil {
		t.Fatal(err)
	}
	a, err := prep.Execute()
	if err != nil {
		t.Fatal(err)
	}
	b, err := prep.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Errorf("re-execution changed result: %d vs %d", len(a.Pairs), len(b.Pairs))
	}
}

// TestQuickEngineMatchesAutomaton is the central correctness property:
// on random graphs and random queries, all four strategies at several k
// agree exactly with the independent automaton oracle.
func TestQuickEngineMatchesAutomaton(t *testing.T) {
	labels := []string{"a", "b"}
	genOpts := rpq.GenOptions{
		Labels:         labels,
		MaxDepth:       3,
		MaxFanout:      2,
		MaxRepeatBound: 2,
		AllowEpsilon:   true,
		AllowInverse:   true,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 3+r.Intn(12), 5+r.Intn(20), labels)
		expr := rpq.Generate(r, genOpts)
		want, err := automaton.Eval(expr, g)
		if err != nil {
			return false
		}
		wantSet := pairSet(want)
		k := 1 + r.Intn(3)
		e, err := NewEngine(g, Options{K: k, HistogramBuckets: []int{0, 1, 8}[r.Intn(3)]})
		if err != nil {
			t.Logf("seed %d: engine: %v", seed, err)
			return false
		}
		for _, s := range plan.Strategies() {
			res, err := e.Eval(expr, s)
			if err != nil {
				t.Logf("seed %d query %s strategy %v: %v", seed, expr, s, err)
				return false
			}
			gotSet := pairSet(res.Pairs)
			if len(gotSet) != len(wantSet) {
				t.Logf("seed %d query %s k=%d strategy %v: got %d pairs, oracle %d",
					seed, expr, k, s, len(gotSet), len(wantSet))
				return false
			}
			for p := range wantSet {
				if !gotSet[p] {
					t.Logf("seed %d query %s: missing pair %v", seed, expr, p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestResultsDeduplicated(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	r, err := e.EvalQuery("knows|knows|knows", plan.Naive)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[pathindex.Pair]bool{}
	for _, p := range r.Pairs {
		if seen[p] {
			t.Fatalf("duplicate pair %v in result", p)
		}
		seen[p] = true
	}
}

// TestNamedPairsOutsideNodeTable: pairs naming nodes the graph does not
// have (an index built from another graph) are an error, not an index
// past the node table.
func TestNamedPairsOutsideNodeTable(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	n := graph.NodeID(g.NumNodes())
	for _, bad := range []pathindex.Pair{{Src: n, Dst: 0}, {Src: 0, Dst: n}} {
		names, err := e.NamedPairs([]pathindex.Pair{{Src: 0, Dst: 1}, bad})
		if !errors.Is(err, pathindex.ErrGraphMismatch) || names != nil {
			t.Fatalf("NamedPairs(%v) = %v, %v; want ErrGraphMismatch", bad, names, err)
		}
	}
}
