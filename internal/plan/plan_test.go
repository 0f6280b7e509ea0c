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
	}
	return nil
}

// joins returns all join nodes of a plan tree in preorder.
func joins(n Node) []*Join {
	if v, ok := n.(*Join); ok {
		return append(append([]*Join{v}, joins(v.Left)...), joins(v.Right)...)
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
// R = k ◦ (k◦w)^{2,4} ◦ w at k=3. Disjunct kkwkww becomes one join of
// I(kkw) with I(kww) — the paper's merge join I(w⁻k⁻k⁻) ⋈ I(kww), here a
// group join over forward scans; kkwkwkww adds a second join and
// kkwkwkwkww a third. Under HashOnly the same trees are hash joins.
func TestWorkedExampleSemiNaive(t *testing.T) {
	g, k, w := gexLabels()
	d1 := path(k, k, w, k, w, w)
	d2 := path(k, k, w, k, w, k, w, w)
	d3 := path(k, k, w, k, w, k, w, k, w, w)
	for _, hashOnly := range []bool{false, true} {
		pl := newPlanner(3, fakeEstimator{def: 50})
		pl.HashOnly = hashOnly
		p, err := pl.PlanPaths([]pathindex.Path{d1, d2, d3}, false, SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		algo := Group
		if hashOnly {
			algo = Hash
		}
		for i, d := range []pathindex.Path{d1, d2, d3} {
			js := joins(p.Disjuncts[i])
			if len(js) != i+1 {
				t.Fatalf("hashOnly=%v d%d: want %d joins, got %v", hashOnly, i+1, i+1, describeJoins(js))
			}
			for _, j := range js {
				if j.Algo != algo {
					t.Errorf("hashOnly=%v d%d: want %v joins, got %v", hashOnly, i+1, algo, describeJoins(js))
				}
			}
			segmentsCover(t, p.Disjuncts[i], d)
		}
		j1 := joins(p.Disjuncts[0])[0]
		if got := j1.Left.(*Scan).Segment.Format(g); got != "knows/knows/worksFor" {
			t.Errorf("hashOnly=%v d1: left scan = %s", hashOnly, got)
		}
		if got := j1.Right.(*Scan).Segment.Format(g); got != "knows/worksFor/worksFor" {
			t.Errorf("hashOnly=%v d1: right scan = %s", hashOnly, got)
		}
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
	// The center joins one flank and the result the other: both are
	// group joins, and hash joins under HashOnly.
	js := joins(node)
	if len(js) != 2 {
		t.Fatalf("want 2 joins, got %d", len(js))
	}
	if js[0].Algo != Group || js[1].Algo != Group {
		t.Errorf("joins should be group joins, got %v", describeJoins(js))
	}
	pl.HashOnly = true
	if p, err = pl.PlanPaths([]pathindex.Path{d}, false, MinSupport); err != nil {
		t.Fatal(err)
	}
	js = joins(p.Disjuncts[0])
	if len(js) != 2 || js[0].Algo != Hash || js[1].Algo != Hash {
		t.Errorf("HashOnly: want two hash joins, got %v", describeJoins(js))
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
	pl.HashOnly = true // a group join has no build side
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
		hashOnly   bool
		want, gone []string
	}{
		{false, []string{"semiNaive", "group-join", "knows/knows/worksFor", "identity"}, []string{"hash-join", "build="}},
		{true, []string{"semiNaive", "hash-join build=", "knows/knows/worksFor", "identity"}, []string{"group-join"}},
	} {
		pl := newPlanner(3, fakeEstimator{def: 10})
		pl.HashOnly = tc.hashOnly
		p, err := pl.PlanPaths([]pathindex.Path{path(k, k, w, k, w, w)}, true, SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Format(g)
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("hashOnly=%v: Format missing %q:\n%s", tc.hashOnly, want, out)
			}
		}
		for _, gone := range tc.gone {
			if strings.Contains(out, gone) {
				t.Errorf("hashOnly=%v: Format has %q:\n%s", tc.hashOnly, gone, out)
			}
		}
	}
}

// TestQuickAllStrategiesCoverDisjunct: for random disjuncts, every
// strategy yields a tree whose leaf segments concatenate to the disjunct,
// with all segments within length k, no scan inverted, and every join a
// group join, or a hash join under HashOnly.
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
		for _, hashOnly := range []bool{false, true} {
			pl := newPlanner(k, est)
			pl.HashOnly = hashOnly
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
					if leaf.Inverted {
						t.Logf("%v: inverted scan", s)
						return false
					}
					cat = append(cat, leaf.Segment...)
				}
				if !cat.Equal(d) {
					t.Logf("%v: segments do not cover disjunct", s)
					return false
				}
				want := map[bool]JoinAlgo{false: Group, true: Hash}[hashOnly]
				for _, j := range joins(p.Disjuncts[0]) {
					if j.Algo != want {
						t.Logf("%v hashOnly=%v: %v join", s, hashOnly, j.Algo)
						return false
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
// joins every later segment by probing, and has no group or hash join,
// and a leading star closes the bound identity.
func TestBoundPlanFormat(t *testing.T) {
	g, k, w := gexLabels()
	jan, _ := g.LookupNode("jan")
	star := Seq{Elems: []SeqElem{{Star: []Seq{{Elems: []SeqElem{{Seg: path(k)}}}}}}}
	pl := newPlanner(2, fakeEstimator{def: 10})
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
			t.Errorf("bound plan lacks %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"group-join", "hash-join"} {
		if strings.Contains(out, gone) {
			t.Errorf("bound plan has %q:\n%s", gone, out)
		}
	}
	if p.HasEpsilon {
		t.Error("bound ε must be the bound identity, not the all-nodes one")
	}
	if got := len(joins(p.Disjuncts[1])); got != 2 {
		t.Errorf("3-segment chain has %d probe joins, want 2:\n%s", got, out)
	}
}
