package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/rpq"
)

func TestEvalFromBasics(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 3)
	// Example 3.1's prefix lookup, through the engine: kkw from jan.
	names, err := e.EvalQueryFrom("knows/knows/worksFor", "jan")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"ada": true, "jan": true, "kim": true}
	if len(names) != len(want) {
		t.Fatalf("kkw from jan = %v, want ada/jan/kim", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected target %q", n)
		}
	}
}

func TestEvalFromEpsilonAndErrors(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	names, err := e.EvalQueryFrom("knows?", "zoe")
	if err != nil {
		t.Fatal(err)
	}
	// zoe itself (ε) plus zoe's knows-successors.
	if len(names) < 2 {
		t.Errorf("knows? from zoe = %v", names)
	}
	foundSelf := false
	for _, n := range names {
		if n == "zoe" {
			foundSelf = true
		}
	}
	if !foundSelf {
		t.Error("ε disjunct missing: zoe should reach itself")
	}
	if _, err := e.EvalQueryFrom("knows", "nobody"); err == nil {
		t.Error("unknown source should fail")
	}
	if _, err := e.EvalQueryFrom("knows/", "zoe"); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := e.EvalFrom(rpq.MustParse("knows"), graph.NodeID(10_000)); err == nil {
		t.Error("out-of-range source should fail")
	}
}

// TestCompileFromExplain: a single-source query compiles to an ordinary
// plan with its source bound into the leaf scan, so it explains and
// reports per-operator statistics like any other.
func TestCompileFromExplain(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	jan, _ := g.LookupNode("jan")
	prep, err := e.CompileFrom(rpq.MustParse("knows/knows/worksFor|knows*"), jan)
	if err != nil {
		t.Fatal(err)
	}
	out := prep.Explain()
	for _, want := range []string{"scan knows/knows from jan", "probe-join", "closure (", "input: identity (ε) from jan"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "group-join") {
		t.Errorf("bound plan has a group join:\n%s", out)
	}
	res, err := prep.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OperatorRows["probe-join"] == 0 || res.Stats.OperatorRows["closure"] == 0 {
		t.Errorf("operator rows %v lack the probe join or the closure", res.Stats.OperatorRows)
	}
	for _, p := range res.Pairs {
		if p.Src != jan {
			t.Fatalf("bound plan emitted %v, not from jan", p)
		}
	}
}

// TestQuickEvalFromMatchesAutomaton: single-source evaluation equals the
// automaton's single-source answer on random graphs and queries.
func TestQuickEvalFromMatchesAutomaton(t *testing.T) {
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
		k := 1 + r.Intn(3)
		e, err := NewEngine(g, Options{K: k})
		if err != nil {
			return false
		}
		nfa, err := automaton.Compile(expr, g)
		if err != nil {
			return false
		}
		for src := 0; src < g.NumNodes(); src += 2 {
			want := nfa.EvalFrom(graph.NodeID(src))
			got, err := e.EvalFrom(expr, graph.NodeID(src))
			if err != nil {
				t.Logf("seed %d query %s src %d: %v", seed, expr, src, err)
				return false
			}
			if len(got) != len(want) {
				t.Logf("seed %d query %s src %d: got %d targets, oracle %d",
					seed, expr, src, len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestExecuteParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randomGraph(r, 25, 60, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	for _, query := range []string{
		"a{1,4}",
		"(a|b){1,3}",
		"a/b|b/a|a/a^-",
		"a?",
	} {
		prep, err := e.Compile(rpq.MustParse(query), plan.MinSupport)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := prep.Execute()
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			par, err := prep.ExecuteParallel(workers)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", query, workers, err)
			}
			if len(pairSet(par.Pairs)) != len(pairSet(seq.Pairs)) {
				t.Errorf("%s workers=%d: %d pairs, sequential %d",
					query, workers, len(par.Pairs), len(seq.Pairs))
			}
			for p := range pairSet(seq.Pairs) {
				if !pairSet(par.Pairs)[p] {
					t.Errorf("%s workers=%d: missing %v", query, workers, p)
				}
			}
		}
	}
}

func TestExecuteParallelSingleDisjunctFallsBack(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 2)
	prep, err := e.Compile(rpq.MustParse("knows/knows"), plan.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.ExecuteParallel(8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.OperatorRows == nil {
		t.Error("single-disjunct parallel execution should fall back to Execute (with operator stats)")
	}
}
