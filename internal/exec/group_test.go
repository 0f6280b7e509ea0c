package exec

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

// nestedLoopJoin is the reference join: every left pair (s, m) against
// every right pair (m, t), as a set. It also counts the distinct
// witnesses (s, m, t), which exceed the set when a pair is reached
// through several join nodes.
func nestedLoopJoin(left, right []Pair) (map[Pair]bool, int) {
	out := map[Pair]bool{}
	witnesses := 0
	rs := asSet(right)
	for l := range asSet(left) {
		for r := range rs {
			if r.Src == l.Dst {
				out[Pair{Src: l.Src, Dst: r.Dst}] = true
				witnesses++
			}
		}
	}
	return out, witnesses
}

// TestGroupJoinDifferential compares the group join against a nested
// loop plus a set over heap, v3 and a tier stack over v3, at batch sizes
// 1, 3 and 1024. The left input is a forward scan: it has sources with
// no match, join nodes whose right row is empty, and pairs (s, t)
// reached through several join nodes. The right input is unsorted,
// repeats pairs, and holds node IDs past the storage graph's node count
// — as the tier's added nodes lie past the base graph's.
func TestGroupJoinDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 300, 900, 2)
	ix := buildIndex(t, g, 2)
	v3 := openV3(t, ix)
	// A tier adding five nodes, each reached by a and leaving by b.
	var batch []graph.LabeledEdge
	for i := range 5 {
		name := fmt.Sprintf("new%d", i)
		batch = append(batch,
			graph.LabeledEdge{Src: g.NodeName(graph.NodeID(r.Intn(g.NumNodes()))), Label: "a", Dst: name},
			graph.LabeledEdge{Src: name, Label: "b", Dst: g.NodeName(graph.NodeID(r.Intn(g.NumNodes())))},
			graph.LabeledEdge{Src: g.NodeName(graph.NodeID(r.Intn(g.NumNodes()))), Label: "b", Dst: name})
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
	a := pathindex.Path{graph.Fwd(0)}
	b := pathindex.Path{graph.Fwd(1)}
	for _, tc := range []struct {
		name string
		s    pathindex.Storage
	}{{"heap", ix}, {"v3", v3}, {"levels-v3", stack}} {
		left := Run(NewIndexScan(tc.s, a))
		right := Run(NewIndexScan(tc.s, b))
		nodes := graph.NodeID(tc.s.Graph().NumNodes())
		if tc.name == "levels-v3" && !slices.ContainsFunc(right, func(p Pair) bool { return p.Src >= graph.NodeID(g.NumNodes()) }) {
			t.Fatalf("%s: the tier's b-pairs add no node", tc.name)
		}
		// Rows past the node count: one a left pair reaches, one it
		// does not.
		right = append(right, Pair{Src: left[0].Dst, Dst: nodes + 7}, Pair{Src: nodes + 3, Dst: 1})
		right = append(right, right[:len(right)/4]...) // duplicate pairs
		r.Shuffle(len(right), func(i, j int) { right[i], right[j] = right[j], right[i] })

		want, witnesses := nestedLoopJoin(left, right)
		rows, matched := map[graph.NodeID]bool{}, map[graph.NodeID]bool{}
		for _, p := range right {
			rows[p.Src] = true
		}
		for p := range want {
			matched[p.Src] = true
		}
		unmatched, emptyRow, multi := false, false, witnesses > len(want)
		for _, l := range left {
			unmatched = unmatched || !matched[l.Src]
			emptyRow = emptyRow || !rows[l.Dst]
		}
		if !unmatched || !emptyRow || !multi {
			t.Fatalf("%s: fixture lacks a case: unmatched source %v, empty row %v, pair through several join nodes %v", tc.name, unmatched, emptyRow, multi)
		}
		for _, size := range []int{1, 3, 1024} {
			op := NewGroupJoin(NewIndexScan(tc.s, a), &sliceOp{pairs: slices.Clone(right)}, size)
			got := RunSized(op, size)
			where := fmt.Sprintf("%s, batch %d", tc.name, size)
			if len(got) != len(want) || !setsEqual(asSet(got), want) {
				t.Fatalf("%s: group join gave %d pairs (%d distinct), nested loop %d", where, len(got), len(asSet(got)), len(want))
			}
			for i := 1; i < len(got); i++ {
				if got[i].Src < got[i-1].Src {
					t.Fatalf("%s: source %d after %d: output not grouped by ascending source", where, got[i].Src, got[i-1].Src)
				}
			}
			if op.Rows() != len(want) {
				t.Fatalf("%s: Rows() = %d, want %d", where, op.Rows(), len(want))
			}
		}
	}
}

// cancelAfter serves pairs like sliceOp and cancels a context once it
// has served batches batches.
type cancelAfter struct {
	sliceOp
	batches int
	cancel  context.CancelFunc
}

func (c *cancelAfter) NextBatch(buf []Pair) int {
	if c.sliceOp.batches == c.batches {
		c.cancel()
	}
	return c.sliceOp.NextBatch(buf)
}

// TestGroupJoinCancelledDuringDrain cancels the context while the group
// join drains its right input: NextBatch returns 0 rather than join
// against a partial relation, and keeps returning 0.
func TestGroupJoinCancelledDuringDrain(t *testing.T) {
	var right []Pair
	for i := range 100 {
		right = append(right, Pair{Src: graph.NodeID(i % 10), Dst: graph.NodeID(i)})
	}
	left := []Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	op := WithContext(NewGroupJoin(&sliceOp{pairs: left}, &cancelAfter{sliceOp: sliceOp{pairs: right}, batches: 2, cancel: cancel}, 8), ctx)
	buf := make([]Pair, 16)
	for i := range 2 {
		if n := op.NextBatch(buf); n != 0 {
			t.Fatalf("call %d after a cancelled drain returned %d pairs", i, n)
		}
	}
}

// TestBuildRefusesUnorderedGroupJoin: a group join needs a left input
// grouped by source, so Build refuses one over a hash join, whose output
// is not, and builds it over a scan of one run and over the concatenated
// scans of 1 or 2 shards' runs. A scan marked inverted, which no plan
// holds, is refused rather than read forward.
func TestBuildRefusesUnorderedGroupJoin(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 40, 90, 2)
	ix := buildIndex(t, g, 2)
	a := &plan.Scan{Segment: pathindex.Path{graph.Fwd(0)}}
	b := &plan.Scan{Segment: pathindex.Path{graph.Fwd(1)}}
	group := func(left plan.Node) *plan.Plan {
		return &plan.Plan{Disjuncts: []plan.Node{&plan.Join{Left: left, Right: b, Algo: plan.Group}}}
	}
	if _, err := Build(group(&plan.Join{Left: a, Right: b, Algo: plan.Hash}), ix, BuildOptions{}); err == nil {
		t.Error("group join over a hash join was built")
	}
	inverted := &plan.Scan{Segment: a.Segment, Inverted: true}
	for _, p := range []*plan.Plan{group(inverted), {Disjuncts: []plan.Node{inverted}}} {
		if _, err := Build(p, ix, BuildOptions{}); err == nil {
			t.Error("an inverted scan was built")
		}
	}
	for _, s := range []pathindex.Storage{ix, buildShardedIndex(t, g, 2, 1), buildShardedIndex(t, g, 2, 2)} {
		if _, err := Build(group(a), s, BuildOptions{}); err != nil {
			t.Errorf("%T: %v", s, err)
		}
	}
}
