package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/reachability"
	"repro/internal/rpq"

	"repro/internal/plan"
)

// checkStarOracles compares e's answer to expr under every strategy
// with the automaton oracle and, for the restricted shape (ℓ1|…|ℓm)*,
// with the reachability index of the paper's approach 3.
func checkStarOracles(t *testing.T, e *Engine, expr rpq.Expr, where string) []pathindex.Pair {
	t.Helper()
	want, err := automaton.Eval(expr, e.Graph())
	if err != nil {
		t.Fatalf("%s: automaton oracle on %q: %v", where, expr, err)
	}
	wantSorted := sortedPairs(want)
	if _, ok := reachability.CanHandle(expr, e.Graph()); ok {
		reach, err := reachability.Eval(expr, e.Graph())
		if err != nil {
			t.Fatalf("%s: reachability oracle on %q: %v", where, expr, err)
		}
		if !slices.Equal(sortedPairs(reach), wantSorted) {
			t.Fatalf("%s: the oracles disagree on %q", where, expr)
		}
	}
	for _, strat := range plan.Strategies() {
		res, err := e.Eval(expr, strat)
		if err != nil {
			t.Fatalf("%s: eval of %q under %v: %v", where, expr, strat, err)
		}
		if !slices.Equal(sortedPairs(res.Pairs), wantSorted) {
			t.Errorf("%s: engine disagrees with the oracles on %q under %v", where, expr, strat)
		}
	}
	return wantSorted
}

// TestDifferentialClosureEngines is the closure differential test: on
// random small graphs, the engine must agree with the automaton oracle
// (and the reachability index where it applies) across all four
// strategies and EvalFrom.
func TestDifferentialClosureEngines(t *testing.T) {
	queries := []string{
		"a*", "b*", "(a|b)*", "(a|b^-)*", // restricted shapes
		"a/b*", "a*/b", "a/(a|b)*/b", // closures inside compositions
		"(a/b)*", "a+", "a{2,}", "b?/a*", // longer bodies, mandatory prefixes
		"(a*)*", "(a|b*)*", "(a/b*)*", // nested stars
		"a*|b/a", "(a|b)*|a/b*", // unions mixing paths and closures
	}
	for seed := int64(40); seed < 43; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 10+r.Intn(10), 25, []string{"a", "b"})
		e := newTestEngine(t, g, 2)
		for _, text := range queries {
			expr := rpq.MustParse(text)
			wantSorted := checkStarOracles(t, e, expr, fmt.Sprintf("seed %d", seed))
			// EvalFrom must agree with the filtered pair relation.
			src := graph.NodeID(r.Intn(g.NumNodes()))
			var wantFrom []graph.NodeID
			for _, pr := range wantSorted {
				if pr.Src == src {
					wantFrom = append(wantFrom, pr.Dst)
				}
			}
			gotFrom, err := e.EvalFrom(expr, src)
			if err != nil {
				t.Fatalf("seed %d: EvalFrom(%q, %d): %v", seed, text, src, err)
			}
			if !slices.Equal(gotFrom, wantFrom) {
				t.Errorf("seed %d: EvalFrom disagrees on %q from %d: got %v want %v",
					seed, text, src, gotFrom, wantFrom)
			}
		}
	}
}

// TestDifferentialRandomStarQueries extends the differential test to
// randomly generated expressions containing unbounded repetitions.
func TestDifferentialRandomStarQueries(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	g := randomGraph(r, 12, 30, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	genOpts := rpq.GenOptions{
		Labels: []string{"a", "b"}, MaxDepth: 3, MaxFanout: 2,
		MaxRepeatBound: 2, AllowInverse: true, AllowUnbounded: true,
	}
	for i := 0; i < 40; i++ {
		checkStarOracles(t, e, rpq.Generate(r, genOpts), fmt.Sprintf("query %d", i))
	}
}

// TestRestrictedStarMatchesReachability is the regression for
// (a|a^-)* on a 201-node chain, which bounded star expansion could not
// answer (2^201 disjuncts): the closure must return exactly the
// reachability index's answer.
func TestRestrictedStarMatchesReachability(t *testing.T) {
	g := chainTestGraph(t, 201)
	expr := rpq.MustParse("(a|a^-)*")
	want, err := reachability.Eval(expr, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := newTestEngine(t, g, 2).Eval(expr, plan.MinSupport)
	if err != nil {
		t.Fatalf("eval of (a|a^-)*: %v", err)
	}
	if !slices.Equal(sortedPairs(res.Pairs), sortedPairs(want)) {
		t.Error("engine disagrees with reachability.Eval on (a|a^-)*")
	}
}

func chainTestGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g := graph.New()
	for i := 0; i < n-1; i++ {
		g.AddEdge(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1))
	}
	g.Freeze()
	return g
}

// TestChainStarFast is the performance regression test: a* on a
// 200-edge chain used to cost ~580ms of disjunct expansion; closure
// evaluation must finish in single-digit milliseconds (asserted with
// CI headroom).
func TestChainStarFast(t *testing.T) {
	g := chainTestGraph(t, 201)
	e := newTestEngine(t, g, 2)
	wantPairs := 201 * 202 / 2 // identity + all ordered chain pairs

	start := time.Now()
	res, err := e.EvalQuery("a*", plan.MinSupport)
	if err != nil {
		t.Fatalf("a*: %v", err)
	}
	elapsed := time.Since(start)
	if len(res.Pairs) != wantPairs {
		t.Errorf("a* returned %d pairs, want %d", len(res.Pairs), wantPairs)
	}
	if res.Stats.Closures != 1 || res.Stats.Disjuncts != 0 {
		t.Errorf("a* stats: %d closures / %d path disjuncts, want 1/0",
			res.Stats.Closures, res.Stats.Disjuncts)
	}
	// The whole test, index build included, runs in under 5ms; 100ms
	// leaves ample headroom for slow CI while still catching any return
	// of the 580ms expansion path.
	if elapsed > 100*time.Millisecond {
		t.Errorf("a* took %v; the expansion path is back?", elapsed)
	}
}

// TestExplainClosureNodes checks every star surfaces in Explain as the
// one closure node, with its input.
func TestExplainClosureNodes(t *testing.T) {
	e := newTestEngine(t, chainTestGraph(t, 10), 2)
	for _, tc := range []struct{ query, input string }{
		{"a*", "input: identity (ε)"},
		{"(a|a^-)*", "input: identity (ε)"},
		{"a/(a)*", "input: scan"},
	} {
		out, err := e.Explain(tc.query, plan.MinSupport)
		if err != nil {
			t.Fatal(err)
		}
		if !contains(out, "closure (") || !contains(out, tc.input) {
			t.Errorf("Explain of %s lacks a closure node with %q:\n%s", tc.query, tc.input, out)
		}
		for _, gone := range []string{"reach-scan", "[streamed]", "[fixpoint]"} {
			if contains(out, gone) {
				t.Errorf("Explain of %s still names %q:\n%s", tc.query, gone, out)
			}
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// TestExecuteParallelClosures checks the parallel executor handles
// closure disjuncts (workers build their own operator trees).
func TestExecuteParallelClosures(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	g := randomGraph(r, 15, 30, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	for _, text := range []string{"a*|b/a*|(a|b)*", "a/b*|b*|a*"} {
		prep, err := e.Compile(rpq.MustParse(text), plan.MinSupport)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prep.Execute()
		if err != nil {
			t.Fatal(err)
		}
		got, err := prep.ExecuteParallel(4)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sortedPairs(got.Pairs), sortedPairs(want.Pairs)) {
			t.Errorf("ExecuteParallel disagrees with Execute on %q", text)
		}
	}
}
