package exec

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

// nestedLoopProbe is the reference probe join: every left pair (s, m)
// against every pair of rel whose source is m.
func nestedLoopProbe(left []Pair, rel []pathindex.Packed) []Pair {
	var out []Pair
	for _, l := range left {
		for _, pr := range rel {
			if pr.Src() == l.Dst {
				out = append(out, Pair{Src: l.Src, Dst: pr.Dst()})
			}
		}
	}
	sortPairs(out)
	return out
}

// openV3 saves ix as a v3 file under t's temp directory and opens it.
func openV3(t *testing.T, ix *pathindex.Index) *pathindex.CompressedIndex {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.pix")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	c, err := pathindex.OpenCompressed(path, ix.Graph())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestProbeJoinDifferential compares the probe join against a nested
// loop over heap, v3 and a tier stack over v3, at batch sizes 1, 3 and
// 1024. The left input is unsorted, spans several sources and repeats
// pairs; its join nodes include two in one on-disk block, two in
// adjacent blocks, one whose run straddles a block boundary, and some
// with no run at all.
func TestProbeJoinDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 300, 2500, 2)
	ix := buildIndex(t, g, 2)
	seg := pathindex.Path{graph.Fwd(0), graph.Fwd(1)}
	rel := ix.Relation(seg)
	if len(rel) < 3*pathindex.DefaultBlockSize {
		t.Fatalf("fixture relation has %d pairs, want ≥ 3 blocks", len(rel))
	}
	const bs = pathindex.DefaultBlockSize
	probes := []graph.NodeID{
		rel[10].Src(), rel[bs/2].Src(), // one block
		rel[bs+100].Src(), rel[2*bs+100].Src(), // adjacent blocks
		graph.NodeID(g.NumNodes()), 1 << 20, // no run
	}
	straddle := false
	for i := bs; i < len(rel); i += bs {
		if rel[i-1].Src() == rel[i].Src() {
			probes = append(probes, rel[i].Src())
			straddle = true
			break
		}
	}
	if !straddle {
		t.Fatal("no run of the fixture straddles a block boundary")
	}
	for range 8 {
		probes = append(probes, graph.NodeID(r.Intn(g.NumNodes())))
	}
	var left []Pair
	for _, m := range probes {
		for range 1 + r.Intn(3) {
			left = append(left, Pair{Src: graph.NodeID(r.Intn(5)), Dst: m})
		}
	}
	left = append(left, left[:5]...) // duplicate pairs
	r.Shuffle(len(left), func(i, j int) { left[i], left[j] = left[j], left[i] })

	v3 := openV3(t, ix)
	// A tier over the v3 base, adding edges at the probed nodes.
	var batch []graph.LabeledEdge
	for _, m := range probes[:4] {
		batch = append(batch, graph.LabeledEdge{Src: g.NodeName(m), Label: "b", Dst: g.NodeName(graph.NodeID(r.Intn(g.NumNodes())))})
	}
	g2, err := g.ExtendFrozen(batch)
	if err != nil {
		t.Fatal(err)
	}
	d, err := pathindex.BuildDelta(v3, g2)
	if err != nil {
		t.Fatal(err)
	}
	stack, err := pathindex.PushTier(v3, pathindex.NewTier(d, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// The tier adds pairs to the b-runs of probed nodes, which the
	// stack's cursor merges into the base's; its oracle is a rebuild.
	oracle := buildIndex(t, g2, 2)
	probedB := pathindex.Path{graph.Fwd(1)}
	for _, tc := range []struct {
		name string
		s    pathindex.Storage
		p    pathindex.Path
		rel  []pathindex.Packed
	}{
		{"heap", ix, seg, rel},
		{"v3", v3, seg, rel},
		{"levels-v3", stack, seg, oracle.Relation(seg)},
		{"levels-v3 tiered runs", stack, probedB, oracle.Relation(probedB)},
	} {
		want := nestedLoopProbe(left, tc.rel)
		for _, size := range []int{1, 3, 1024} {
			op := NewProbeJoin(&sliceOp{pairs: slices.Clone(left)}, tc.s, tc.p, size)
			got := RunSized(op, size)
			sortPairs(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s, batch %d: probe join gave %d pairs, nested loop %d", tc.name, size, len(got), len(want))
			}
			if op.Rows() != len(want) {
				t.Fatalf("%s, batch %d: Rows() = %d, want %d", tc.name, size, op.Rows(), len(want))
			}
		}
	}
}

// TestBoundQueryDecodesEachBlockOnce runs the bound plan a/b from one
// source over v3, where a and b are one on-disk block each and the
// source reaches many join nodes: the bound scan decodes a's block and
// the probe join b's, once for the whole query, however small its left
// batches.
func TestBoundQueryDecodesEachBlockOnce(t *testing.T) {
	g := graph.New()
	for i := 1; i <= 60; i++ {
		g.AddEdge("0", "a", fmt.Sprint(i))
		for j := range 3 {
			g.AddEdge(fmt.Sprint(i), "b", fmt.Sprint(100+(i*7+j*13)%50))
		}
	}
	g.Freeze()
	ix := buildIndex(t, g, 1)
	v3 := openV3(t, ix)
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	src, _ := g.LookupNode("0")
	pl := &plan.Plan{Disjuncts: []plan.Node{&plan.Join{
		Left:  &plan.Scan{Segment: pathindex.Path{graph.Fwd(a)}, Bound: true, Src: src},
		Right: &plan.Scan{Segment: pathindex.Path{graph.Fwd(b)}},
		Algo:  plan.Probe,
	}}}
	want := map[Pair]bool{}
	for _, m := range g.Out(src, graph.Fwd(a)) {
		for _, t := range g.Out(m, graph.Fwd(b)) {
			want[Pair{Src: src, Dst: t}] = true
		}
	}
	for _, size := range []int{1, 1024} {
		before, _ := v3.DecodeStats()
		op, err := Build(pl, v3, BuildOptions{BatchSize: size})
		if err != nil {
			t.Fatal(err)
		}
		if got := asSet(RunSized(op, size)); !setsEqual(got, want) {
			t.Fatalf("batch %d: %d pairs, want %d", size, len(got), len(want))
		}
		after, _ := v3.DecodeStats()
		if n := after - before; n != 2 {
			t.Errorf("batch %d: the query decoded %d blocks, want 2 (one per segment)", size, n)
		}
	}
}
