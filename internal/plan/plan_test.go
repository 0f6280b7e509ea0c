package plan

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pathindex"
)

// fakeEstimator returns fixed per-path counts with a default.
type fakeEstimator struct {
	counts map[string]float64
	def    float64
}

func (f fakeEstimator) EstimateCount(p pathindex.Path) float64 {
	if c, ok := f.counts[p.Key()]; ok {
		return c
	}
	return f.def
}

// gexLabels returns (graph, knows, worksFor) for rendering tests.
func gexLabels() (*graph.Graph, graph.LabelID, graph.LabelID) {
	g := graph.ExampleGraph()
	k, _ := g.LookupLabel("knows")
	w, _ := g.LookupLabel("worksFor")
	return g, k, w
}

// path builds a forward path over the given labels.
func path(labels ...graph.LabelID) pathindex.Path {
	p := make(pathindex.Path, len(labels))
	for i, l := range labels {
		p[i] = graph.Fwd(l)
	}
	return p
}

// leaves returns the in-order scan leaves of a plan tree.
func leaves(n Node) []*Scan {
	switch v := n.(type) {
	case *Scan:
		return []*Scan{v}
	case *Join:
		return append(leaves(v.Left), leaves(v.Right)...)
	case *Scatter:
		return leaves(v.Child)
	}
	return nil
}

// joins returns all join nodes of a plan tree in preorder, looking
// through scatters.
func joins(n Node) []*Join {
	switch v := n.(type) {
	case *Join:
		return append(append([]*Join{v}, joins(v.Left)...), joins(v.Right)...)
	case *Scatter:
		return joins(v.Child)
	}
	return nil
}

// segmentsCover checks that the concatenated leaf segments equal d.
func segmentsCover(t *testing.T, n Node, d pathindex.Path) {
	t.Helper()
	var cat pathindex.Path
	for _, s := range leaves(n) {
		cat = append(cat, s.Segment...)
	}
	if !cat.Equal(d) {
		t.Errorf("leaf segments %v do not concatenate to disjunct %v", cat, d)
	}
}

func newPlanner(k int, est CardEstimator) *Planner {
	return &Planner{K: k, Hist: est, NumNodes: 100}
}

func TestStrategyNames(t *testing.T) {
	for _, s := range Strategies() {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy(bogus) should fail")
	}
	if Strategy(99).String() == "" {
		t.Error("unknown strategy String empty")
	}
}

func TestPlannerValidation(t *testing.T) {
	pl := &Planner{K: 2, NumNodes: 10}
	if _, err := pl.PlanPaths([]pathindex.Path{path(0)}, false, SemiNaive); err == nil {
		t.Error("nil histogram should fail")
	}
	pl = newPlanner(0, fakeEstimator{def: 1})
	if _, err := pl.PlanPaths([]pathindex.Path{path(0)}, false, SemiNaive); err == nil {
		t.Error("k=0 should fail")
	}
	pl = newPlanner(2, fakeEstimator{def: 1})
	if _, err := pl.PlanPaths([]pathindex.Path{{}}, false, SemiNaive); err == nil {
		t.Error("empty disjunct should fail")
	}
	if _, err := pl.PlanPaths([]pathindex.Path{path(0)}, false, Strategy(42)); err == nil {
		t.Error("unknown strategy should fail")
	}
}

func TestSingleSegmentDisjunct(t *testing.T) {
	// |D| <= k: plan is a bare scan for every strategy except naive
	// (which splits into length-1 segments).
	pl := newPlanner(3, fakeEstimator{def: 10})
	d := path(0, 1)
	for _, s := range []Strategy{SemiNaive, MinSupport, MinJoin} {
		p, err := pl.PlanPaths([]pathindex.Path{d}, false, s)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.Disjuncts[0].(*Scan); !ok {
			t.Errorf("%v: want bare scan, got %T", s, p.Disjuncts[0])
		}
	}
	p, err := pl.PlanPaths([]pathindex.Path{d}, false, Naive)
	if err != nil {
		t.Fatal(err)
	}
	if len(leaves(p.Disjuncts[0])) != 2 {
		t.Errorf("naive should split into 2 single-label scans")
	}
}

// TestWorkedExampleSemiNaive reproduces the Section 4 example plans for
// R = k ◦ (k◦w)^{2,4} ◦ w at k=3. Over sharded storage disjunct kkwkww
// becomes one merge join of I((kkw)⁻ scanned, swapped) with I(kww);
// kkwkwkww adds a hash join; kkwkwkwkww two hash joins. Unsharded, the
// same trees are group joins over forward scans.
func TestWorkedExampleSemiNaive(t *testing.T) {
	g, k, w := gexLabels()
	d1 := path(k, k, w, k, w, w)
	d2 := path(k, k, w, k, w, k, w, w)
	d3 := path(k, k, w, k, w, k, w, k, w, w)
	for _, shards := range []int{0, 2} {
		pl := newPlanner(3, fakeEstimator{def: 50})
		pl.Shards = shards
		p, err := pl.PlanPaths([]pathindex.Path{d1, d2, d3}, false, SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		merge, hash := Merge, Hash
		if shards == 0 {
			merge, hash = Group, Group
		}

		// Disjunct 1: merge(scan kkw inverted, scan kww).
		j1 := joins(p.Disjuncts[0])
		if len(j1) != 1 || j1[0].Algo != merge {
			t.Fatalf("shards=%d d1: want a single %v join, got %v", shards, merge, describeJoins(j1))
		}
		l := j1[0].Left.(*Scan)
		if l.Inverted != (shards > 1) {
			t.Errorf("shards=%d d1: left scan inverted = %v (paper: I(w^-k^-k^-) under a merge join)", shards, l.Inverted)
		}
		if got := l.Segment.Inverse().Format(g); got != "worksFor^-/knows^-/knows^-" {
			t.Errorf("shards=%d d1: inverse of left scan %s", shards, got)
		}
		if got := j1[0].Right.(*Scan).Segment.Format(g); got != "knows/worksFor/worksFor" {
			t.Errorf("shards=%d d1: right scan = %s", shards, got)
		}
		segmentsCover(t, p.Disjuncts[0], d1)

		// Disjunct 2: merge then hash.
		j2 := joins(p.Disjuncts[1])
		if len(j2) != 2 || j2[0].Algo != hash || j2[1].Algo != merge {
			t.Errorf("shards=%d d2: want %v(%v(...),...), got %v", shards, hash, merge, describeJoins(j2))
		}
		segmentsCover(t, p.Disjuncts[1], d2)

		// Disjunct 3: merge then two hashes.
		j3 := joins(p.Disjuncts[2])
		if len(j3) != 3 {
			t.Fatalf("shards=%d d3: want 3 joins, got %d", shards, len(j3))
		}
		merges := 0
		for _, j := range j3 {
			if j.Algo == Merge {
				merges++
			}
		}
		if want := map[bool]int{true: 1, false: 0}[shards > 1]; merges != want {
			t.Errorf("shards=%d d3: want exactly %d merge join, got %d", shards, want, merges)
		}
		segmentsCover(t, p.Disjuncts[2], d3)
	}
}

func TestMinSupportPicksMostSelectiveWindow(t *testing.T) {
	_, k, w := gexLabels()
	// Disjunct kkwkww (len 6, k=3): windows kkw, kwk, wkw, kww.
	// Make kwk (positions 1..4) by far the most selective; flanks k and
	// ww. This mirrors the paper's illustration where D' = kwk, Dleft=k,
	// Dright=ww.
	d := path(k, k, w, k, w, w)
	est := fakeEstimator{def: 1000, counts: map[string]float64{
		path(k, w, k).Key(): 3,   // most selective window
		path(k).Key():       500, // Dleft
		path(w, w).Key():    100, // Dright
	}}
	pl := newPlanner(3, est)
	p, err := pl.PlanPaths([]pathindex.Path{d}, false, MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	node := p.Disjuncts[0]
	segmentsCover(t, node, d)
	// The center segment kwk must appear as a leaf.
	var segs []string
	for _, s := range leaves(node) {
		segs = append(segs, s.Segment.Key())
	}
	found := false
	for _, s := range segs {
		if s == path(k, w, k).Key() {
			found = true
		}
	}
	if !found {
		t.Errorf("minSupport did not isolate the most selective window kwk; leaves=%d", len(segs))
	}
	// With both flanks scans, the inner join with the center is a merge
	// join and the outer join a hash join (paper's illustration) over
	// sharded storage; unsharded, both are group joins.
	js := joins(node)
	if len(js) != 2 {
		t.Fatalf("want 2 joins, got %d", len(js))
	}
	if js[0].Algo != Group || js[1].Algo != Group {
		t.Errorf("unsharded joins should be group joins, got %v", describeJoins(js))
	}
	pl.Shards = 2
	if p, err = pl.PlanPaths([]pathindex.Path{d}, false, MinSupport); err != nil {
		t.Fatal(err)
	}
	js = joins(p.Disjuncts[0])
	if len(js) != 2 {
		t.Fatalf("shards=2: want 2 joins, got %d", len(js))
	}
	if js[0].Algo != Hash {
		t.Errorf("shards=2: outer join should be hash, got %v", js[0].Algo)
	}
	if js[1].Algo != Merge {
		t.Errorf("shards=2: inner join should be merge, got %v", js[1].Algo)
	}
}

func TestMinSupportFlankRecursion(t *testing.T) {
	// A length-8 disjunct at k=3 forces recursion on a length >k flank.
	_, k, w := gexLabels()
	d := path(k, k, w, k, w, k, w, w)
	pl := newPlanner(3, fakeEstimator{def: 100})
	p, err := pl.PlanPaths([]pathindex.Path{d}, false, MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	segmentsCover(t, p.Disjuncts[0], d)
	for _, s := range leaves(p.Disjuncts[0]) {
		if len(s.Segment) > 3 {
			t.Errorf("segment longer than k: %v", s.Segment)
		}
	}
}

func TestMinJoinMinimizesJoins(t *testing.T) {
	_, k, w := gexLabels()
	for _, tc := range []struct {
		d     pathindex.Path
		kk    int
		joins int
	}{
		{path(k, k, w, k), 3, 1},          // 4 steps, k=3: 2 segments
		{path(k, k, w, k, w, w), 3, 1},    // 6 steps: 2 segments
		{path(k, k, w, k, w, k, w), 3, 2}, // 7 steps: 3 segments
		{path(k, w), 1, 1},
		{path(k, k, w, k), 2, 1},
	} {
		pl := newPlanner(tc.kk, fakeEstimator{def: 10})
		p, err := pl.PlanPaths([]pathindex.Path{tc.d}, false, MinJoin)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(joins(p.Disjuncts[0])); got != tc.joins {
			t.Errorf("len=%d k=%d: %d joins, want %d", len(tc.d), tc.kk, got, tc.joins)
		}
		segmentsCover(t, p.Disjuncts[0], tc.d)
	}
}

func TestMinJoinPrefersCheapSegmentation(t *testing.T) {
	_, k, w := gexLabels()
	// Length 4 at k=3: segmentations (3,1),(2,2),(1,3). Make the (2,2)
	// split segments tiny and the alternatives huge.
	d := path(k, w, w, k)
	est := fakeEstimator{def: 1e6, counts: map[string]float64{
		path(k, w).Key(): 2,
		path(w, k).Key(): 2,
	}}
	pl := newPlanner(3, est)
	p, err := pl.PlanPaths([]pathindex.Path{d}, false, MinJoin)
	if err != nil {
		t.Fatal(err)
	}
	ls := leaves(p.Disjuncts[0])
	if len(ls) != 2 || len(ls[0].Segment) != 2 || len(ls[1].Segment) != 2 {
		t.Errorf("expected the (2,2) segmentation, got %d segments of lengths %v",
			len(ls), segLengths(ls))
	}
}

func TestHashOnlyAblation(t *testing.T) {
	_, k, w := gexLabels()
	d := path(k, k, w, k, w, w)
	pl := newPlanner(3, fakeEstimator{def: 10})
	pl.HashOnly = true
	for _, s := range Strategies() {
		p, err := pl.PlanPaths([]pathindex.Path{d}, false, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range joins(p.Disjuncts[0]) {
			if j.Algo != Hash {
				t.Errorf("%v: %v join under HashOnly", s, j.Algo)
			}
		}
	}
}

func TestHashJoinBuildSide(t *testing.T) {
	_, k, w := gexLabels()
	// Three segments so the second join is a hash join; right side tiny.
	d := path(k, k, w, k, w, w, k)
	est := fakeEstimator{def: 1000, counts: map[string]float64{
		path(k).Key(): 1, // the final 1-step segment is tiny
	}}
	pl := newPlanner(3, est)
	pl.Shards = 2 // unsharded, the join is a group join and has no build side
	p, err := pl.PlanPaths([]pathindex.Path{d}, false, SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	outer := p.Disjuncts[0].(*Join)
	if outer.Algo != Hash || !outer.BuildRight {
		t.Errorf("outer join should hash-build the tiny right side: %+v", outer)
	}
}

func TestPlanCardAndCost(t *testing.T) {
	pl := newPlanner(2, fakeEstimator{def: 10})
	p, err := pl.PlanPaths([]pathindex.Path{path(0), path(1)}, true, SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if p.Card() != 20 {
		t.Errorf("Card = %f, want 20", p.Card())
	}
	if p.Cost() != 20 {
		t.Errorf("Cost = %f, want 20 (two scans)", p.Cost())
	}
	if !p.HasEpsilon {
		t.Error("HasEpsilon lost")
	}
}

func TestFormat(t *testing.T) {
	g, k, w := gexLabels()
	for _, tc := range []struct {
		shards     int
		want, gone []string
	}{
		{0, []string{"semiNaive", "group-join", "knows/knows/worksFor", "identity"}, []string{"swap", "merge-join"}},
		{2, []string{"semiNaive", "merge-join", "knows/knows/worksFor", "swap", "identity", "scatter ×2"}, []string{"group-join"}},
	} {
		pl := newPlanner(3, fakeEstimator{def: 10})
		pl.Shards = tc.shards
		p, err := pl.PlanPaths([]pathindex.Path{path(k, k, w, k, w, w)}, true, SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Format(g)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("shards=%d: Format missing %q:\n%s", tc.shards, want, out)
			}
		}
		for _, gone := range tc.gone {
			if strings.Contains(out, gone) {
				t.Errorf("shards=%d: Format has %q:\n%s", tc.shards, gone, out)
			}
		}
	}
}

// TestQuickAllStrategiesCoverDisjunct: for random disjuncts, every
// strategy yields a tree whose leaf segments concatenate to the disjunct,
// with all segments within length k. Unsharded, every join is a group
// join and no scan is inverted; over shards, merge joins join two scans,
// the left one inverted.
func TestQuickAllStrategiesCoverDisjunct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 1 + r.Intn(3)
		n := 1 + r.Intn(10)
		d := make(pathindex.Path, n)
		for i := range d {
			l := graph.LabelID(r.Intn(3))
			if r.Intn(2) == 0 {
				d[i] = graph.Fwd(l)
			} else {
				d[i] = graph.Inv(l)
			}
		}
		est := fakeEstimator{def: float64(1 + r.Intn(1000))}
		for _, shards := range []int{0, 2} {
			pl := newPlanner(k, est)
			pl.Shards = shards
			for _, s := range Strategies() {
				p, err := pl.PlanPaths([]pathindex.Path{d}, false, s)
				if err != nil {
					t.Logf("%v: %v", s, err)
					return false
				}
				var cat pathindex.Path
				maxSeg := k
				if s == Naive {
					maxSeg = 1
				}
				for _, leaf := range leaves(p.Disjuncts[0]) {
					if len(leaf.Segment) > maxSeg {
						t.Logf("%v: segment %v longer than %d", s, leaf.Segment, maxSeg)
						return false
					}
					if shards == 0 && leaf.Inverted {
						t.Logf("%v: inverted scan under a group join", s)
						return false
					}
					cat = append(cat, leaf.Segment...)
				}
				if !cat.Equal(d) {
					t.Logf("%v: segments do not cover disjunct", s)
					return false
				}
				for _, j := range joins(p.Disjuncts[0]) {
					if shards == 0 && j.Algo != Group {
						t.Logf("%v: unsharded %v join", s, j.Algo)
						return false
					}
					// Merge joins only between two scans, left inverted.
					if j.Algo == Merge {
						ls, lok := j.Left.(*Scan)
						_, rok := j.Right.(*Scan)
						if !lok || !rok || !ls.Inverted {
							t.Logf("%v: malformed merge join", s)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func describeJoins(js []*Join) []string {
	out := make([]string, len(js))
	for i, j := range js {
		out[i] = j.Algo.String()
	}
	return out
}

func segLengths(ls []*Scan) []int {
	out := make([]int, len(ls))
	for i, s := range ls {
		out[i] = len(s.Segment)
	}
	return out
}

// TestBoundPlanFormat: a bound plan names its source on the leaf scan,
// joins every later segment by probing, and has no merge join or scatter
// — on one shard and on four — and a leading star closes the bound
// identity.
func TestBoundPlanFormat(t *testing.T) {
	g, k, w := gexLabels()
	jan, _ := g.LookupNode("jan")
	star := Seq{Elems: []SeqElem{{Star: []Seq{{Elems: []SeqElem{{Seg: path(k)}}}}}}}
	for _, shards := range []int{1, 4} {
		pl := newPlanner(2, fakeEstimator{def: 10})
		pl.Shards = shards
		p, err := pl.PlanQueryFrom(jan, []pathindex.Path{path(k, k, w, k, w)}, []Seq{star}, true)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Format(g)
		for _, want := range []string{
			"scan knows/knows from jan (est 0.1)",
			"probe-join",
			"identity (ε) from jan",
			"closure (",
			"input: identity (ε) from jan",
			"body: scan knows (est 10.0)",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("shards=%d: bound plan lacks %q:\n%s", shards, want, out)
			}
		}
		for _, gone := range []string{"merge-join", "hash-join", "scatter", "swap"} {
			if strings.Contains(out, gone) {
				t.Errorf("shards=%d: bound plan has %q:\n%s", shards, gone, out)
			}
		}
		if p.HasEpsilon {
			t.Errorf("shards=%d: bound ε must be the bound identity, not the all-nodes one", shards)
		}
		if got := len(joins(p.Disjuncts[1])); got != 2 {
			t.Errorf("shards=%d: 3-segment chain has %d probe joins, want 2:\n%s", shards, got, out)
		}
	}
}
