package pathindex

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// blockGraph builds a small two-label random graph for block tests.
func blockGraph(seed int64, nodes, edges int) *graph.Graph {
	r := rand.New(rand.NewSource(seed))
	g := graph.New()
	g.EnsureNodes(nodes)
	a := g.Label("a")
	b := g.Label("b")
	for i := 0; i < edges; i++ {
		g.AddEdgeID(graph.NodeID(r.Intn(nodes)), a, graph.NodeID(r.Intn(nodes)))
		g.AddEdgeID(graph.NodeID(r.Intn(nodes)), b, graph.NodeID(r.Intn(nodes)))
	}
	g.Freeze()
	return g
}

func collectBlocks(bi *BlockIterator) []Pair {
	var out []Pair
	for {
		blk := bi.Next()
		if blk == nil {
			return out
		}
		if len(blk) == 0 {
			panic("BlockIterator returned an empty non-nil block")
		}
		for _, pr := range blk {
			out = append(out, pr.Pair())
		}
	}
}

func TestBlocksEmptyRelation(t *testing.T) {
	g := blockGraph(1, 10, 20)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// A path over a label id the graph does not have resolves to no
	// relation; Blocks must yield an empty iteration, not panic.
	bogus := Path{graph.Fwd(99)}
	if blk := ix.Blocks(bogus).Next(); blk != nil {
		t.Errorf("unknown path produced block of %d pairs", len(blk))
	}
	if rel := ix.Relation(bogus); rel != nil {
		t.Errorf("unknown path has non-nil relation %v", rel)
	}
	if rng := ix.SrcRange(bogus, 0); len(rng) != 0 {
		t.Errorf("unknown path SrcRange = %v", rng)
	}
}

func TestBlocksSinglePair(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Freeze()
	ix, err := Build(g, 1, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.LookupLabel("a")
	p := Path{graph.Fwd(a)}
	bi := ix.Blocks(p)
	blk := bi.Next()
	if len(blk) != 1 {
		t.Fatalf("single-pair relation: first block has %d pairs", len(blk))
	}
	if got := blk[0].Pair(); got != (Pair{Src: 0, Dst: 1}) {
		t.Errorf("block pair = %v", got)
	}
	if bi.Next() != nil {
		t.Error("single-pair relation yielded a second block")
	}
}

func TestBlocksSizeLargerThanRelation(t *testing.T) {
	g := blockGraph(2, 15, 30)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.LookupLabel("a")
	p := Path{graph.Fwd(a), graph.Inv(a)}
	want := collect(ix.Relation(p))
	if len(want) == 0 {
		t.Fatal("test relation is empty")
	}
	bi := ix.Blocks(p).Sized(len(want) * 10)
	blk := bi.Next()
	if len(blk) != len(want) {
		t.Fatalf("oversized block size: block has %d pairs, relation %d", len(blk), len(want))
	}
	if bi.Next() != nil {
		t.Error("oversized block size yielded a second block")
	}
}

func TestBlocksChunkingAndZeroCopy(t *testing.T) {
	g := blockGraph(3, 30, 120)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	for _, p := range []Path{{graph.Fwd(a)}, {graph.Fwd(a), graph.Fwd(b)}, {graph.Inv(b), graph.Fwd(a)}} {
		want := collect(ix.Relation(p))
		for _, size := range []int{1, 3, 7, 64, 0 /* clamps to 1 */} {
			got := collectBlocks(ix.Blocks(p).Sized(size))
			if !pairsEqual(got, want) {
				t.Errorf("path %s size %d: blocks disagree with scan (%d vs %d pairs)",
					p.Format(g), size, len(got), len(want))
			}
		}
		// Blocks must alias the index storage, not copy it.
		rel := ix.Relation(p)
		if len(rel) == 0 {
			continue
		}
		blk := ix.Blocks(p).Sized(3).Next()
		if &blk[0] != &rel[0] {
			t.Errorf("path %s: first block does not alias the relation storage", p.Format(g))
		}
	}
}

func TestSrcRangeMatchesRelation(t *testing.T) {
	g := blockGraph(4, 25, 100)
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	for _, p := range []Path{{graph.Fwd(a)}, {graph.Fwd(b), graph.Inv(a)}} {
		bySrc := map[graph.NodeID][]Pair{}
		for _, pr := range collect(ix.Relation(p)) {
			bySrc[pr.Src] = append(bySrc[pr.Src], pr)
		}
		for src := 0; src < g.NumNodes(); src++ {
			got := collect(ix.SrcRange(p, graph.NodeID(src)))
			if want := bySrc[graph.NodeID(src)]; !pairsEqual(got, want) {
				t.Errorf("SrcRange(%s, %d) = %v, want %v", p.Format(g), src, got, want)
			}
		}
	}
}

func TestPackedRoundTrip(t *testing.T) {
	cases := []Pair{
		{Src: 0, Dst: 0},
		{Src: 1, Dst: 2},
		{Src: 0xffffffff, Dst: 0},
		{Src: 0, Dst: 0xffffffff},
		{Src: 0xffffffff, Dst: 0xffffffff},
	}
	for _, pr := range cases {
		p := Pack(pr.Src, pr.Dst)
		if p.Pair() != pr {
			t.Errorf("Pack(%v).Pair() = %v", pr, p.Pair())
		}
		if got := p.Swap().Pair(); got != (Pair{Src: pr.Dst, Dst: pr.Src}) {
			t.Errorf("Swap(%v) = %v", pr, got)
		}
	}
}
