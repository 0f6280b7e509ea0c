package pathindex

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

// bruteRelation computes p(G) by direct nested traversal — the oracle for
// the composed index relations.
func bruteRelation(g *graph.Graph, p Path) []Pair {
	set := map[Pair]bool{}
	var walk func(start, cur graph.NodeID, depth int)
	walk = func(start, cur graph.NodeID, depth int) {
		if depth == len(p) {
			set[Pair{start, cur}] = true
			return
		}
		for _, next := range g.Out(cur, p[depth]) {
			walk(start, next, depth+1)
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		walk(graph.NodeID(n), graph.NodeID(n), 0)
	}
	out := make([]Pair, 0, len(set))
	for pr := range set {
		out = append(out, pr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// collect unpacks a run for comparison.
func collect(rel []Packed) []Pair {
	var out []Pair
	for _, pr := range rel {
		out = append(out, pr.Pair())
	}
	return out
}

func pairsEqual(a, b []Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func randomGraph(r *rand.Rand, nodes, edgesPerLabel, labels int) *graph.Graph {
	g := graph.New()
	g.EnsureNodes(nodes)
	names := []string{"a", "b", "c", "d", "e"}
	for l := 0; l < labels; l++ {
		lid := g.Label(names[l])
		for e := 0; e < edgesPerLabel; e++ {
			g.AddEdgeID(graph.NodeID(r.Intn(nodes)), lid, graph.NodeID(r.Intn(nodes)))
		}
	}
	g.Freeze()
	return g
}

func TestBuildValidation(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "l", "b")
	if _, err := Build(g, 2, BuildOptions{}); err == nil {
		t.Error("Build on unfrozen graph should fail")
	}
	g.Freeze()
	if _, err := Build(g, 0, BuildOptions{}); err == nil {
		t.Error("Build with k=0 should fail")
	}
}

func TestBuildTinyGraph(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "l", "y")
	g.AddEdge("y", "l", "z")
	g.Freeze()
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	l, _ := g.LookupLabel("l")
	x, _ := g.LookupNode("x")
	y, _ := g.LookupNode("y")
	z, _ := g.LookupNode("z")

	got := collect(ix.Relation(Path{graph.Fwd(l)}))
	want := []Pair{{x, y}, {y, z}}
	sort.Slice(want, func(i, j int) bool { return want[i].Src < want[j].Src })
	if !pairsEqual(got, want) {
		t.Errorf("l relation = %v, want %v", got, want)
	}

	got = collect(ix.Relation(Path{graph.Fwd(l), graph.Fwd(l)}))
	if !pairsEqual(got, []Pair{{x, z}}) {
		t.Errorf("l/l relation = %v, want [(x,z)]", got)
	}

	got = collect(ix.Relation(Path{graph.Fwd(l), graph.Inv(l)}))
	// x -l-> y <-l- x and y -l-> z <-l- y: {(x,x),(y,y)}.
	if !pairsEqual(got, []Pair{{x, x}, {y, y}}) {
		t.Errorf("l/l^- relation = %v", got)
	}

	// Paths longer than k are not indexed.
	if _, ok := ix.PathID(Path{graph.Fwd(l), graph.Fwd(l), graph.Fwd(l)}); ok {
		t.Error("length-3 path indexed at k=2")
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 30, 60, 2)
	k := 3
	ix, err := Build(g, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Check every indexed path against the oracle, and confirm counts.
	checked := 0
	ix.AllPaths(func(id uint32, p Path, count int) {
		want := bruteRelation(g, p)
		got := collect(ix.Relation(p))
		if !pairsEqual(got, want) {
			t.Errorf("path %s: index %d pairs, brute %d pairs", p.Format(g), len(got), len(want))
		}
		if count != len(want) {
			t.Errorf("path %s: Count=%d, brute=%d", p.Format(g), count, len(want))
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("no paths indexed")
	}
	// Every non-empty path of length <= k must be indexed: sample a few.
	dirs := g.DirLabels()
	for i := 0; i < 50; i++ {
		p := Path{dirs[r.Intn(len(dirs))], dirs[r.Intn(len(dirs))], dirs[r.Intn(len(dirs))]}
		want := bruteRelation(g, p)
		got := collect(ix.Relation(p))
		if !pairsEqual(got, want) {
			t.Errorf("sampled path %s: got %d pairs, want %d", p.Format(g), len(got), len(want))
		}
	}
}

func TestDerivedInversesMatchRecomputed(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 25, 50, 2)
	fast, err := Build(g, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Build(g, 3, BuildOptions{NoDerivedInverses: true})
	if err != nil {
		t.Fatal(err)
	}
	if fast.NumEntries() != slow.NumEntries() {
		t.Fatalf("entries differ: derived=%d recomputed=%d", fast.NumEntries(), slow.NumEntries())
	}
	if fast.Stats().DerivedPaths == 0 {
		t.Error("expected some derived inverse relations")
	}
	if slow.Stats().DerivedPaths != 0 {
		t.Error("NoDerivedInverses still derived relations")
	}
	fast.AllPaths(func(id uint32, p Path, count int) {
		if got := collect(slow.Relation(p)); !pairsEqual(got, collect(fast.Relation(p))) {
			t.Errorf("path %s differs between build modes", p.Format(g))
		}
	})
}

func TestSrcRangeAndContains(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 20, 40, 2)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ix.AllPaths(func(id uint32, p Path, count int) {
		all := collect(ix.Relation(p))
		bySrc := map[graph.NodeID][]Pair{}
		for _, pr := range all {
			bySrc[pr.Src] = append(bySrc[pr.Src], pr)
		}
		for src, want := range bySrc {
			got := collect(ix.SrcRange(p, src))
			if !pairsEqual(got, want) {
				t.Errorf("SrcRange(%s,%d) = %v, want %v", p.Format(g), src, got, want)
			}
		}
		// A source with no pairs yields empty.
		if len(bySrc[graph.NodeID(19)]) == 0 {
			if got := collect(ix.SrcRange(p, 19)); len(got) != 0 {
				t.Errorf("SrcRange of an empty source returned %v", got)
			}
		}
		for _, pr := range all[:min(3, len(all))] {
			if !contains(ix, p, pr.Src, pr.Dst) {
				t.Errorf("Contains(%s,%v) = false", p.Format(g), pr)
			}
		}
	})
	// Unknown paths are empty.
	bogus := Path{graph.DirLabel(9999)}
	if got := collect(ix.Relation(bogus)); len(got) != 0 {
		t.Errorf("unknown path Relation returned %v", got)
	}
	if got := collect(ix.SrcRange(bogus, 0)); len(got) != 0 {
		t.Errorf("unknown path SrcRange returned %v", got)
	}
	if contains(ix, bogus, 0, 0) {
		t.Error("unknown path Contains = true")
	}
}

func TestPathsKCount(t *testing.T) {
	// Chain x -l-> y -l-> z with k=1:
	// pairs: identity (3) + l: (x,y),(y,z) + l^-: (y,x),(z,y) = 7.
	g := graph.New()
	g.AddEdge("x", "l", "y")
	g.AddEdge("y", "l", "z")
	g.Freeze()
	ix, err := Build(g, 1, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.PathsKCount(); got != 7 {
		t.Errorf("PathsKCount = %d, want 7", got)
	}
	// k=2 adds (x,z),(z,x) via l/l, plus nothing new from the
	// bounce paths (l/l^- gives identity pairs already counted).
	ix2, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := ix2.PathsKCount(); got != 9 {
		t.Errorf("PathsKCount(k=2) = %d, want 9", got)
	}
	// SkipPathsKCount leaves it at zero.
	ix3, err := Build(g, 1, BuildOptions{SkipPathsKCount: true})
	if err != nil {
		t.Fatal(err)
	}
	if ix3.PathsKCount() != 0 {
		t.Error("SkipPathsKCount did not skip")
	}
}

// TestPathsKCountMatchesBFS cross-checks |paths_k(G)| against an
// independent undirected-BFS computation on random graphs.
func TestPathsKCountMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 15, 25, 2)
		k := 1 + r.Intn(3)
		ix, err := Build(g, k, BuildOptions{})
		if err != nil {
			return false
		}
		// BFS over steps in both directions up to depth k.
		count := 0
		for s := 0; s < g.NumNodes(); s++ {
			visited := map[graph.NodeID]bool{graph.NodeID(s): true}
			frontier := []graph.NodeID{graph.NodeID(s)}
			reach := map[graph.NodeID]bool{graph.NodeID(s): true}
			for d := 0; d < k; d++ {
				var next []graph.NodeID
				for _, n := range frontier {
					for _, dl := range g.DirLabels() {
						for _, m := range g.Out(n, dl) {
							reach[m] = true
							if !visited[m] {
								visited[m] = true
								next = append(next, m)
							}
						}
					}
				}
				frontier = next
			}
			count += len(reach)
		}
		return ix.PathsKCount() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPathsKCountBFSNote: the BFS cross-check above treats reach as
// "within k undirected-step walks"; walks can revisit nodes, so BFS by
// shortest distance is equivalent because a pair reachable by a walk of
// length i is reachable by one of length ≤ i... except parity: a walk of
// length 2 can return to a node whose shortest distance is 0. Both the
// index (which includes identity only via the 0-path) and walks of even
// length cover such pairs, and since shortest-path distance ≤ walk
// length, the BFS "reach" set equals the walk-reachable set. This test
// pins that equivalence on a concrete counterexample candidate: a
// triangle, where parity arguments usually break.
func TestPathsKCountTriangle(t *testing.T) {
	g := graph.New()
	g.AddEdge("a", "l", "b")
	g.AddEdge("b", "l", "c")
	g.AddEdge("c", "l", "a")
	g.Freeze()
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// All 9 pairs are within 2 undirected steps on a triangle.
	if got := ix.PathsKCount(); got != 9 {
		t.Errorf("triangle PathsKCount = %d, want 9", got)
	}
}

func TestExample31PrefixLookups(t *testing.T) {
	// Example 3.1 of the paper, on the reconstructed Gex: the three
	// prefix lookups for jan on knows·knows·worksFor.
	g := graph.ExampleGraph()
	ix, err := Build(g, 3, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	knows, _ := g.LookupLabel("knows")
	wf, _ := g.LookupLabel("worksFor")
	kkw := Path{graph.Fwd(knows), graph.Fwd(knows), graph.Fwd(wf)}
	jan, _ := g.LookupNode("jan")
	ada, _ := g.LookupNode("ada")
	joe, _ := g.LookupNode("joe")
	kim, _ := g.LookupNode("kim")

	// I(kkw, jan) = ⟨ada, jan, kim⟩ in target order.
	got := collect(ix.SrcRange(kkw, jan))
	wantDsts := []graph.NodeID{ada, jan, kim}
	sort.Slice(wantDsts, func(i, j int) bool { return wantDsts[i] < wantDsts[j] })
	if len(got) != 3 {
		t.Fatalf("I(kkw, jan) = %v, want 3 targets", got)
	}
	for i, pr := range got {
		if pr.Dst != wantDsts[i] {
			t.Errorf("I(kkw, jan)[%d].Dst = %s, want %s", i, g.NodeName(pr.Dst), g.NodeName(wantDsts[i]))
		}
	}
	// I(kkw, jan, ada) non-empty; I(kkw, jan, joe) empty.
	if !contains(ix, kkw, jan, ada) {
		t.Error("I(kkw, jan, ada) should be non-empty")
	}
	if contains(ix, kkw, jan, joe) {
		t.Error("I(kkw, jan, joe) should be empty")
	}
}

func TestSection22FirstExample(t *testing.T) {
	// supervisor ∘ worksFor⁻ (Gex) = {(kim, sue)}.
	g := graph.ExampleGraph()
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sup, _ := g.LookupLabel("supervisor")
	wf, _ := g.LookupLabel("worksFor")
	p := Path{graph.Fwd(sup), graph.Inv(wf)}
	got := collect(ix.Relation(p))
	kim, _ := g.LookupNode("kim")
	sue, _ := g.LookupNode("sue")
	if !pairsEqual(got, []Pair{{kim, sue}}) {
		named := make([][2]string, len(got))
		for i, pr := range got {
			named[i] = [2]string{g.NodeName(pr.Src), g.NodeName(pr.Dst)}
		}
		t.Errorf("supervisor/worksFor^- = %v, want [(kim,sue)]", named)
	}
}

func TestPaths2Example(t *testing.T) {
	// (sam, ada) ∈ paths₂(Gex) but ∉ paths₁(Gex): no length-≤1 label
	// path relates them, while knows^-/worksFor and knows^-/knows^- do.
	g := graph.ExampleGraph()
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sam, _ := g.LookupNode("sam")
	ada, _ := g.LookupNode("ada")
	knows, _ := g.LookupLabel("knows")
	wf, _ := g.LookupLabel("worksFor")

	for _, d := range g.DirLabels() {
		if contains(ix, Path{d}, sam, ada) {
			t.Errorf("(sam,ada) related by length-1 path %s", g.DirLabelName(d))
		}
	}
	if !contains(ix, Path{graph.Inv(knows), graph.Fwd(wf)}, sam, ada) {
		t.Error("(sam,ada) missing from knows^-/worksFor")
	}
	if !contains(ix, Path{graph.Inv(knows), graph.Inv(knows)}, sam, ada) {
		t.Error("(sam,ada) missing from knows^-/knows^-")
	}
}

func TestMaxEntriesGuard(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 30, 100, 2)
	if _, err := Build(g, 3, BuildOptions{MaxEntries: 10}); err == nil {
		t.Error("MaxEntries guard did not trigger")
	}
}

func TestResolve(t *testing.T) {
	g := graph.ExampleGraph()
	knows, _ := g.LookupLabel("knows")
	p, ok := Resolve(g, mustSteps("knows", "!knows"))
	if !ok {
		t.Fatal("Resolve failed")
	}
	want := Path{graph.Fwd(knows), graph.Inv(knows)}
	if !p.Equal(want) {
		t.Errorf("Resolve = %v, want %v", p, want)
	}
	if _, ok := Resolve(g, mustSteps("nosuchlabel")); ok {
		t.Error("Resolve of unknown label should report !ok")
	}
	// Round trip through Steps.
	back := p.Steps(g)
	if back.String() != "knows/knows^-" {
		t.Errorf("Steps round trip = %q", back.String())
	}
}

func TestPathInverseAndKey(t *testing.T) {
	p := Path{graph.Fwd(0), graph.Inv(1), graph.Fwd(2)}
	inv := p.Inverse()
	want := Path{graph.Inv(2), graph.Fwd(1), graph.Inv(0)}
	if !inv.Equal(want) {
		t.Errorf("Inverse = %v, want %v", inv, want)
	}
	if !inv.Inverse().Equal(p) {
		t.Error("double inverse != original")
	}
	if p.Key() == inv.Key() {
		t.Error("distinct paths share a key")
	}
	// Self-inverse path (a ∘ a⁻ reversed+flipped is itself).
	self := Path{graph.Fwd(0), graph.Inv(0)}
	if !self.Inverse().Equal(self) {
		t.Errorf("a/a^- should be self-inverse, got %v", self.Inverse())
	}
}

// mustSteps builds a rewrite.Path; a "!" prefix marks an inverse step.
func mustSteps(labels ...string) rewrite.Path {
	var out rewrite.Path
	for _, l := range labels {
		if l[0] == '!' {
			out = append(out, rpq.Step{Label: l[1:], Inverse: true})
		} else {
			out = append(out, rpq.Step{Label: l})
		}
	}
	return out
}

func BenchmarkBuildK2(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	g := randomGraph(r, 500, 2000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, 2, BuildOptions{SkipPathsKCount: true}); err != nil {
			b.Fatal(err)
		}
	}
}
