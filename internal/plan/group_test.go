package plan

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
)

// hashEstimator gives every path a fixed pseudo-random count in
// [1, 5000], so the strategies' searches see uneven segments.
type hashEstimator struct{}

func (hashEstimator) EstimateCount(p pathindex.Path) float64 {
	h := fnv.New32a()
	h.Write([]byte(p.Key()))
	return float64(1 + h.Sum32()%5000)
}

// shape renders a plan subtree on one line: a join as algo(left,right),
// a scan as its labels (m, j, a for labels 0, 1, 2), ~ marking an
// inverted scan.
func shape(n Node) string {
	switch v := n.(type) {
	case *Scan:
		var b strings.Builder
		if v.Inverted {
			b.WriteString("~")
		}
		for _, s := range v.Segment {
			b.WriteByte("mja"[s.Label()])
		}
		return b.String()
	case *Join:
		return fmt.Sprintf("%s(%s,%s)", v.Algo, shape(v.Left), shape(v.Right))
	}
	return fmt.Sprintf("<%T>", n)
}

// TestGroupJoinPlans plans Q3 and Q7 of the Advogato workload (labels
// master, journeyer, apprentice) at k = 3 under every strategy. The
// table holds the merge/hash plans the planner made before group joins
// existed, the paper's merge join reading an inverted left scan (~).
// Under HashOnly the plans still equal them. Otherwise every join is a
// group join, no scan is inverted, and the tree, Card and Cost are those
// of the table's merge/hash plan.
func TestGroupJoinPlans(t *testing.T) {
	m, j, a := graph.Fwd(0), graph.Fwd(1), graph.Fwd(2)
	queries := map[string][]pathindex.Path{
		"Q3": {{j, m, j, a, m, j}},
		"Q7": {{m, a, m, a, m, j}, {m, a, m, a, m, a, m, j}},
	}
	merge := []struct {
		query, config string
		strategy      Strategy
		shape         string
		card, cost    float64
	}{
		{"Q3", "group", Naive, "hash(hash(hash(hash(merge(~j,m),j),a),m),j)", 1000000.0, 2725367.0},
		{"Q3", "group", SemiNaive, "merge(~jmj,amj)", 4449.2, 14053.2},
		{"Q3", "group", MinSupport, "merge(~jmj,amj)", 4449.2, 14053.2},
		{"Q3", "group", MinJoin, "merge(~jmj,amj)", 4449.2, 14053.2},
		{"Q3", "hashOnly", Naive, "hash(hash(hash(hash(hash(j,m),j),a),m),j)", 1000000.0, 2727151.0},
		{"Q3", "hashOnly", SemiNaive, "hash(jmj,amj)", 4449.2, 14680.2},
		{"Q3", "hashOnly", MinSupport, "hash(jmj,amj)", 4449.2, 14680.2},
		{"Q3", "hashOnly", MinJoin, "hash(jmj,amj)", 4449.2, 14680.2},
		{"Q7", "group", Naive, "hash(hash(hash(hash(merge(~m,a),m),a),m),j) | hash(hash(hash(hash(hash(hash(merge(~m,a),m),a),m),a),m),j)", 2000000.0, 9450525.3},
		{"Q7", "group", SemiNaive, "merge(~mam,amj) | hash(merge(~mam,ama),mj)", 55733.3, 122743.0},
		{"Q7", "group", MinSupport, "merge(~mam,amj) | hash(mam,hash(merge(~a,mam),j))", 160577.9, 313591.6},
		{"Q7", "group", MinJoin, "merge(~mam,amj) | hash(merge(~ma,mam),amj)", 45513.8, 99463.9},
		{"Q7", "hashOnly", Naive, "hash(hash(hash(hash(hash(m,a),m),a),m),j) | hash(hash(hash(hash(hash(hash(hash(m,a),m),a),m),a),m),j)", 2000000.0, 9453855.3},
		{"Q7", "hashOnly", SemiNaive, "hash(mam,amj) | hash(hash(mam,ama),mj)", 55733.3, 126273.0},
		{"Q7", "hashOnly", MinSupport, "hash(mam,amj) | hash(mam,hash(hash(a,mam),j))", 160577.9, 317021.6},
		{"Q7", "hashOnly", MinJoin, "hash(mam,amj) | hash(hash(ma,mam),amj)", 45513.8, 102545.9},
	}
	asGroup := regexp.MustCompile(`merge|hash`)
	for _, tc := range merge {
		pl := &Planner{K: 3, Hist: hashEstimator{}, NumNodes: 1000}
		want := tc.shape
		switch tc.config {
		case "group":
			want = strings.ReplaceAll(asGroup.ReplaceAllString(want, "group"), "~", "")
		case "hashOnly":
			pl.HashOnly = true
		}
		p, err := pl.PlanPaths(queries[tc.query], false, tc.strategy)
		if err != nil {
			t.Fatal(err)
		}
		var ds []string
		for _, d := range p.Disjuncts {
			ds = append(ds, shape(d))
		}
		where := fmt.Sprintf("%s %s %v", tc.query, tc.config, tc.strategy)
		if got := strings.Join(ds, " | "); got != want {
			t.Errorf("%s: plan %s, want %s", where, got, want)
		}
		if got := fmt.Sprintf("%.1f %.1f", p.Card(), p.Cost()); got != fmt.Sprintf("%.1f %.1f", tc.card, tc.cost) {
			t.Errorf("%s: card, cost %s, want %.1f %.1f", where, got, tc.card, tc.cost)
		}
	}
}
