package pathindex

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
)

// extendRandom splits a random edge set into a base graph and an update
// batch, returning the base graph, the batch, and the full graph built
// from scratch (the oracle). Node interning order is fixed up front so
// node IDs agree across all three.
func extendRandom(r *rand.Rand, nodes, edgesPerLabel int, labels []string, holdout float64) (base, full *graph.Graph, batch []graph.LabeledEdge) {
	type edge struct{ s, l, d string }
	var all []edge
	name := func(n int) string { return "n" + string(rune('A'+n/26)) + string(rune('a'+n%26)) }
	for _, l := range labels {
		for e := 0; e < edgesPerLabel; e++ {
			all = append(all, edge{name(r.Intn(nodes)), l, name(r.Intn(nodes))})
		}
	}
	base, full = graph.New(), graph.New()
	for n := 0; n < nodes; n++ {
		base.Node(name(n))
		full.Node(name(n))
	}
	for _, l := range labels {
		base.Label(l)
		full.Label(l)
	}
	for _, e := range all {
		full.AddEdge(e.s, e.l, e.d)
		if r.Float64() < holdout {
			batch = append(batch, graph.LabeledEdge{Src: e.s, Label: e.l, Dst: e.d})
		} else {
			base.AddEdge(e.s, e.l, e.d)
		}
	}
	base.Freeze()
	full.Freeze()
	return base, full, batch
}

// applyTier builds the base index, applies the batch as one update tier,
// and returns (stack, oracle index over the full graph).
func applyTier(t *testing.T, base *graph.Graph, batch []graph.LabeledEdge, full *graph.Graph, k int) (*Levels, *Index) {
	t.Helper()
	ix, err := Build(base, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Build(full, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return pushChunks(t, ix, batch, 1), oracle
}

// dirStorage is a Storage together with the directory lookups every
// representation embeds, which checkStorageEqual compares too.
type dirStorage interface {
	Storage
	NumLabelPaths() int
	Count(p Path) int
	CountByID(id uint32) int
	PathID(p Path) (uint32, bool)
	PathByID(id uint32) Path
}

// checkStorageEqual compares every accessor of got against the oracle:
// same paths, same counts, same relations, same ranges, and cursors that
// seek, read sub-runs and scan as a binary search over the oracle run.
func checkStorageEqual(t *testing.T, got dirStorage, oracle *Index) {
	t.Helper()
	if got.NumEntries() != oracle.NumEntries() {
		t.Errorf("NumEntries = %d, oracle %d", got.NumEntries(), oracle.NumEntries())
	}
	if got.NumLabelPaths() != oracle.NumLabelPaths() {
		t.Errorf("NumLabelPaths = %d, oracle %d", got.NumLabelPaths(), oracle.NumLabelPaths())
	}
	r := rand.New(rand.NewSource(int64(oracle.NumEntries())))
	oracle.AllPaths(func(id uint32, p Path, count int) {
		if got.Count(p) != count {
			t.Errorf("Count(%v) = %d, oracle %d", p, got.Count(p), count)
		}
		want := oracle.Relation(p)
		if rel := got.Relation(p); !slices.Equal(rel, want) {
			t.Fatalf("Relation(%v) differs: got %d pairs, oracle %d", p, len(rel), len(want))
		}
		// Odd and unit block sizes put block boundaries inside every
		// stretch a merged scan copies.
		for _, size := range []int{1, 7, DefaultBlockSize} {
			var viaBlocks []Packed
			bi := got.Blocks(p).Sized(size)
			for blk := bi.Next(); blk != nil; blk = bi.Next() {
				viaBlocks = append(viaBlocks, blk...)
			}
			if !slices.Equal(viaBlocks, want) {
				t.Fatalf("Blocks(%v).Sized(%d) differs from oracle relation", p, size)
			}
		}
		for src := 0; src < oracle.Graph().NumNodes(); src += 3 {
			a := got.SrcRange(p, graph.NodeID(src))
			b := oracle.SrcRange(p, graph.NodeID(src))
			if !slices.Equal(a, b) {
				t.Fatalf("SrcRange(%v, %d) differs", p, src)
			}
		}
		for _, pr := range want[:min(len(want), 50)] {
			if !contains(got, p, pr.Src(), pr.Dst()) {
				t.Fatalf("(%v, %v) not found by Seek, oracle has it", p, pr)
			}
		}
		checkCursor(t, fmt.Sprintf("cursor of %v", p), func() *BlockIterator { return got.Blocks(p) }, want, r)
	})
	// No extra paths: every got path must exist in the oracle.
	got.AllPaths(func(id uint32, p Path, count int) {
		if _, ok := oracle.PathID(p); !ok && count > 0 {
			t.Errorf("storage has path %v (count %d) absent from oracle", p, count)
		}
	})
}

func TestDeltaTierMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		base, full, batch := extendRandom(r, 30, 80, []string{"a", "b"}, 0.1)
		for _, k := range []int{1, 2, 3} {
			ls, oracle := applyTier(t, base, batch, full, k)
			checkStorageEqual(t, ls, oracle)
			checkTiersDisjoint(t, ls)
			// The fold must also equal the rebuild; its |paths_k| is the
			// stack's upper bound carried over, never below the exact count.
			folded := compacted(t, ls).(*Index)
			checkStorageEqual(t, folded, oracle)
			if folded.PathsKCount() < oracle.PathsKCount() {
				t.Errorf("k=%d: folded PathsKCount = %d, below the oracle's %d", k, folded.PathsKCount(), oracle.PathsKCount())
			}
		}
	}
}

// checkTiersDisjoint asserts the contract Levels' merges rely on: no
// path's merged tier run repeats a pair of its base run.
func checkTiersDisjoint(t *testing.T, ls *Levels) {
	t.Helper()
	ls.AllPaths(func(id uint32, p Path, _ int) {
		if id >= uint32(ls.numBase) {
			return
		}
		base := ls.base.Relation(p)
		for _, pr := range ls.mergedRun(id) {
			if _, found := slices.BinarySearch(base, pr); found {
				t.Fatalf("tier run of %v repeats base pair %v", p, pr)
			}
		}
	})
}

// TestLevelsOverV3Base stacks tiers over a saved and reopened v3 base,
// whose blocks are decoded into one reused buffer while Levels.Blocks
// merges the tier runs into them; some runs span several on-disk
// blocks, so the merge crosses decode boundaries.
func TestLevelsOverV3Base(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	base, full, batch := extendRandom(r, 150, 600, []string{"a", "b"}, 0.05)
	const k = 3
	ix, err := Build(base, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	multi := false
	ix.AllPaths(func(_ uint32, _ Path, count int) { multi = multi || count > blockPairs })
	if !multi {
		t.Fatalf("no base run spans more than one %d-pair block", blockPairs)
	}
	path := filepath.Join(t.TempDir(), "base.pix")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	v3, err := OpenStorage(path, base)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.(io.Closer).Close()
	oracle, err := Build(full, k, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := pushChunks(t, v3, batch, 3)
	checkStorageEqual(t, ls, oracle)
	checkTiersDisjoint(t, ls)
}

func TestDeltaNewNodesAndLabels(t *testing.T) {
	base := graph.New()
	base.AddEdge("x", "a", "y")
	base.AddEdge("y", "a", "z")
	base.Freeze()
	ix, err := Build(base, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The batch introduces a new node (w) and a new label (b).
	ls := pushChunks(t, ix, []graph.LabeledEdge{
		{Src: "z", Label: "a", Dst: "w"},
		{Src: "x", Label: "b", Dst: "z"},
		{Src: "w", Label: "b", Dst: "x"},
	}, 1)
	full := graph.New()
	full.AddEdge("x", "a", "y")
	full.AddEdge("y", "a", "z")
	full.AddEdge("z", "a", "w")
	full.AddEdge("x", "b", "z")
	full.AddEdge("w", "b", "x")
	full.Freeze()
	oracle, err := Build(full, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkStorageEqual(t, ls, oracle)
	if ls.Graph().NumNodes() != 4 || ls.Graph().NumLabels() != 2 {
		t.Errorf("stack graph has %d nodes / %d labels, want 4 / 2", ls.Graph().NumNodes(), ls.Graph().NumLabels())
	}
}

// TestDeltaStacking: a second delta, built against the one-tier stack,
// pushes a second tier over the same base — a push never folds — and the
// two-tier stack still matches a rebuild of everything.
func TestDeltaStacking(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	base, full, batch := extendRandom(r, 25, 60, []string{"a", "b"}, 0.2)
	half := len(batch) / 2
	ix, err := Build(base, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls1 := pushChunks(t, ix, batch[:half], 1)
	ls2 := pushChunks(t, ls1, batch[half:], 1)
	if ls2.Base() != Storage(ix) {
		t.Fatalf("second push did not keep the original base")
	}
	if len(ls2.Tiers()) != 2 || ls2.Tiers()[0] != ls1.Tiers()[0] {
		t.Fatalf("second push did not share the first tier: %d tiers", len(ls2.Tiers()))
	}
	oracle, err := Build(full, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkStorageEqual(t, ls2, oracle)
}

func TestDeltaEmptyBatch(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	base, _, _ := extendRandom(r, 20, 40, []string{"a"}, 0)
	ix, err := Build(base, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ls := pushChunks(t, ix, nil, 1)
	if d := ls.Tiers()[0].ix; d.NumEntries() != 0 || d.NumLabelPaths() != 0 || d.PathsKCount() != 0 {
		t.Errorf("empty batch produced %d entries over %d paths, %d pairs", d.NumEntries(), d.NumLabelPaths(), d.PathsKCount())
	}
	if ls.DeltaEntries() != 0 || ls.DeltaRatio() != 0 {
		t.Errorf("empty tier reports delta entries %d ratio %v", ls.DeltaEntries(), ls.DeltaRatio())
	}
	checkStorageEqual(t, ls, ix)
}

func TestDeltaRejectsMismatchedGraphs(t *testing.T) {
	g := graph.New()
	g.AddEdge("x", "a", "y")
	g.Freeze()
	ix, err := Build(g, 2, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	other := graph.New()
	other.AddEdge("x", "zzz", "y")
	other.Freeze()
	if _, err := BuildDelta(ix, other); err == nil {
		t.Error("BuildDelta accepted a successor with a different label vocabulary")
	}
	unfrozen := graph.New()
	unfrozen.AddEdge("x", "a", "y")
	if _, err := BuildDelta(ix, unfrozen); err == nil {
		t.Error("BuildDelta accepted an unfrozen successor")
	}
}

// BenchmarkBuildDelta times one BuildDelta of a 16-edge batch over a
// k=3 index of the Advogato stand-in at scale 0.1, for four bases: the
// heap index, the same index saved and reopened as a v3 file, and a
// four-tier Levels stack over each of those — the second is what a
// database opened from its index file applies against after its first
// batch. The delta's prefix lookups and subtraction walk one cursor per
// path, so a file base decodes each block it touches once per path,
// from the restart point below each lookup; over one the benchmark
// reports the blocks started and the payload bytes read per batch.
func BenchmarkBuildDelta(b *testing.B) {
	const batchEdges = 16
	g := datasets.AdvogatoScaled(1, 0.1)
	ix, err := Build(g, 3, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "base.pix")
	if err := ix.Save(path); err != nil {
		b.Fatal(err)
	}
	v3, err := OpenStorage(path, g)
	if err != nil {
		b.Fatal(err)
	}
	defer v3.(io.Closer).Close()
	r := rand.New(rand.NewSource(1))
	randomBatch := func(n int) []graph.LabeledEdge {
		batch := make([]graph.LabeledEdge, n)
		for i := range batch {
			batch[i] = graph.LabeledEdge{
				Src:   g.NodeName(graph.NodeID(r.Intn(g.NumNodes()))),
				Label: g.LabelName(graph.LabelID(r.Intn(g.NumLabels()))),
				Dst:   g.NodeName(graph.NodeID(r.Intn(g.NumNodes()))),
			}
		}
		return batch
	}
	earlier := randomBatch(4 * batchEdges)
	batch := randomBatch(batchEdges)
	for _, base := range []struct {
		name string
		s    Storage
	}{{"heap", ix}, {"v3", v3}, {"levels", pushChunks(b, ix, earlier, 4)}, {"levels-v3", pushChunks(b, v3, earlier, 4)}} {
		b.Run(base.name, func(b *testing.B) {
			g2, err := base.s.Graph().ExtendFrozen(batch)
			if err != nil {
				b.Fatal(err)
			}
			dec, ok := base.s.(interface{ DecodeStats() (int64, int64) })
			var blocks0, bytes0 int64
			if ok {
				blocks0, bytes0 = dec.DecodeStats()
			}
			for b.Loop() {
				if _, err := BuildDelta(base.s, g2); err != nil {
					b.Fatal(err)
				}
			}
			if ok {
				blocks1, bytes1 := dec.DecodeStats()
				b.ReportMetric(float64(blocks1-blocks0)/float64(b.N), "blocks/op")
				b.ReportMetric(float64(bytes1-bytes0)/float64(b.N), "decoded-B/op")
			}
		})
	}
}
