package core

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rpq"
)

// goldenResult renders a result as a canonical "a->b;c->d" string.
func goldenResult(e *Engine, r *Result) string {
	pairs := namedPairs(e, r)
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = fmt.Sprintf("%s->%s", p[0], p[1])
	}
	return strings.Join(parts, ";")
}

// TestGexGoldenResults pins the exact answers of representative queries
// on the reconstructed Figure-1 graph. These values were cross-checked
// against the automaton oracle once and now guard against regressions in
// any layer (rewriter, planner, executor, index).
func TestGexGoldenResults(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 3)
	golden := map[string]string{
		"supervisor":            "kim->kim",
		"supervisor/worksFor^-": "kim->sue",
		"knows/knows/worksFor":  "ada->tim;jan->ada;jan->jan;jan->kim;joe->ada;joe->jan;kim->joe;liz->ada;tim->kim;tim->tim",
		"worksFor/worksFor":     "sam->jan",
		"knows{2}":              "ada->sam;jan->joe;jan->sue;jan->tim;jan->zoe;joe->tim;joe->zoe;kim->ada;kim->liz;liz->kim;liz->zoe;tim->sam;tim->joe;tim->sue",
		"supervisor{1,5}":       "kim->kim",
		"worksFor|worksFor^-":   "ada->zoe;jan->tim;joe->liz;kim->sue;liz->joe;sam->tim;sue->kim;tim->jan;tim->sam;zoe->ada",
	}
	for query, want := range golden {
		for _, s := range plan.Strategies() {
			r, err := e.EvalQuery(query, s)
			if err != nil {
				t.Fatalf("%s under %v: %v", query, s, err)
			}
			got := goldenResult(e, r)
			// Normalize: the golden strings are sorted already.
			wantSorted := strings.Split(want, ";")
			sort.Strings(wantSorted)
			if got != strings.Join(wantSorted, ";") {
				t.Errorf("%s under %v:\n got %s\nwant %s", query, s, got, strings.Join(wantSorted, ";"))
			}
		}
	}
}

// TestGexKkwFullRelation pins the full knows/knows/worksFor relation
// that our reconstruction yields, documenting exactly how it relates to
// the paper's Example 3.1 list: the jan, ada, and kim rows match the
// paper; joe and tim rows are partial; liz has one extra pair.
func TestGexKkwFullRelation(t *testing.T) {
	g := graph.ExampleGraph()
	e := newTestEngine(t, g, 3)
	r, err := e.EvalQuery("knows/knows/worksFor", plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, p := range namedPairs(e, r) {
		rows[p[0]] = append(rows[p[0]], p[1])
	}
	for src := range rows {
		sort.Strings(rows[src])
	}
	check := func(src string, want ...string) {
		t.Helper()
		if strings.Join(rows[src], ",") != strings.Join(want, ",") {
			t.Errorf("row %s = %v, want %v", src, rows[src], want)
		}
	}
	// Paper-exact rows.
	check("jan", "ada", "jan", "kim")
	check("ada", "tim")
	check("kim", "joe")
	// Reconstruction-specific rows (paper lists more/fewer pairs; the
	// figure is not fully recoverable from the text).
	check("joe", "ada", "jan")
	check("tim", "kim", "tim")
	check("liz", "ada")
}

// refEvalNode evaluates a physical plan node with deliberately naive
// tuple-at-a-time semantics: scans walk the index pair by pair through
// the iterator API and joins group-and-compose materialized sets. This
// reproduces the pre-vectorization executor's contract independently of
// the batched operators, as the differential baseline.
func refEvalNode(e *Engine, n plan.Node) map[pathindex.Pair]bool {
	switch v := n.(type) {
	case *plan.Scan:
		set := map[pathindex.Pair]bool{}
		for _, pr := range e.ix.Relation(v.Segment) {
			set[pr.Pair()] = true
		}
		return set
	case *plan.Join:
		left := refEvalNode(e, v.Left)
		right := refEvalNode(e, v.Right)
		bySrc := map[graph.NodeID][]graph.NodeID{}
		for pr := range right {
			bySrc[pr.Src] = append(bySrc[pr.Src], pr.Dst)
		}
		out := map[pathindex.Pair]bool{}
		for l := range left {
			for _, dst := range bySrc[l.Dst] {
				out[pathindex.Pair{Src: l.Src, Dst: dst}] = true
			}
		}
		return out
	default:
		panic(fmt.Sprintf("refEvalNode: unknown plan node %T", n))
	}
}

func refEvalPlan(e *Engine, pln *plan.Plan) map[pathindex.Pair]bool {
	out := map[pathindex.Pair]bool{}
	if pln.HasEpsilon {
		for n := 0; n < e.g.NumNodes(); n++ {
			out[pathindex.Pair{Src: graph.NodeID(n), Dst: graph.NodeID(n)}] = true
		}
	}
	for _, d := range pln.Disjuncts {
		for pr := range refEvalNode(e, d) {
			out[pr] = true
		}
	}
	return out
}

func diffSets(t *testing.T, label string, got, want map[pathindex.Pair]bool) {
	t.Helper()
	for pr := range want {
		if !got[pr] {
			t.Errorf("%s: missing pair %v", label, pr)
			return
		}
	}
	for pr := range got {
		if !want[pr] {
			t.Errorf("%s: extra pair %v", label, pr)
			return
		}
	}
}

// TestBatchedExecMatchesReference is the vectorization differential: on
// random graphs and random queries, the batched executor — at several
// batch sizes, through Execute, and through ExecuteParallel — returns
// exactly the pair set of the tuple-at-a-time reference evaluator for
// all four strategies.
func TestBatchedExecMatchesReference(t *testing.T) {
	labels := []string{"a", "b"}
	genOpts := rpq.GenOptions{
		Labels:         labels,
		MaxDepth:       3,
		MaxFanout:      2,
		MaxRepeatBound: 2,
		AllowEpsilon:   true,
		AllowInverse:   true,
	}
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		g := randomGraph(r, 8+r.Intn(12), 15+r.Intn(25), labels)
		k := 1 + r.Intn(3)
		e := newTestEngine(t, g, k)
		expr := rpq.Generate(r, genOpts)
		for _, s := range plan.Strategies() {
			prep, err := e.Compile(expr, s)
			if err != nil {
				t.Fatalf("trial %d query %s strategy %v: %v", trial, expr, s, err)
			}
			want := refEvalPlan(e, prep.plan)
			label := fmt.Sprintf("trial %d query %s k=%d strategy %v", trial, expr, k, s)

			res, err := prep.Execute()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			diffSets(t, label+" (Execute)", pairSet(res.Pairs), want)
			if len(res.Pairs) > 0 && res.Stats.TotalBatches == 0 {
				t.Errorf("%s: result has pairs but no batches recorded", label)
			}

			for _, bs := range []int{1, 7, 256} {
				op, err := exec.Build(prep.plan, e.ix, exec.BuildOptions{PerJoinDedup: true, BatchSize: bs})
				if err != nil {
					t.Fatalf("%s batch=%d: %v", label, bs, err)
				}
				got := pairSet(exec.RunSized(op, bs))
				diffSets(t, fmt.Sprintf("%s (batch=%d)", label, bs), got, want)
			}

			pres, err := prep.ExecuteParallel(3)
			if err != nil {
				t.Fatalf("%s parallel: %v", label, err)
			}
			diffSets(t, label+" (ExecuteParallel)", pairSet(pres.Pairs), want)
		}
	}
}
