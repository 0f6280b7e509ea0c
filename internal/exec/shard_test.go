package exec

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

func buildShardedIndex(t testing.TB, g *graph.Graph, k, shards int) *pathindex.ShardedStorage {
	t.Helper()
	s, err := pathindex.BuildSharded(g, k, pathindex.BuildOptions{}, pathindex.NewHashPartitioner(shards))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// pp builds a Pair; vet rejects unkeyed literals of the aliased type.
func pp(src, dst graph.NodeID) Pair { return Pair{Src: src, Dst: dst} }

// multiset counts each pair's occurrences in a stream.
func multiset(ps []Pair) map[Pair]int {
	m := map[Pair]int{}
	for _, p := range ps {
		m[p]++
	}
	return m
}

func multisetsEqual(a, b map[Pair]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// TestShardedSegmentScan: scanning a segment over sharded storage yields
// exactly the unsharded relation, each pair once, forward and inverted,
// at every shard count; the per-shard sub-scans are disjoint, and each
// holds only pairs whose physical source — the source forward, the
// target inverted — its shard owns.
func TestShardedSegmentScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 25, 60, 2)
	ix := buildIndex(t, g, 2)
	p := pathindex.Path{graph.Fwd(0), graph.Fwd(1)}
	for _, inverted := range []bool{false, true} {
		want := asSet(Run(newSegmentScan(ix, p, inverted)))
		for _, n := range []int{1, 2, 4, 7} {
			s := buildShardedIndex(t, g, 2, n)
			got := Run(newSegmentScan(s, p, inverted))
			if len(got) != len(want) || !setsEqual(asSet(got), want) {
				t.Fatalf("n=%d inverted=%v: %d pairs (%d distinct), want %d", n, inverted, len(got), len(asSet(got)), len(want))
			}
			owner := map[Pair]int{}
			for i := 0; i < n; i++ {
				for _, pr := range Run(newSegmentScan(s.Shard(i), p, inverted)) {
					if prev, dup := owner[pr]; dup {
						t.Fatalf("n=%d inverted=%v: %v in shards %d and %d", n, inverted, pr, prev, i)
					}
					owner[pr] = i
					key := pr.Src
					if inverted {
						key = pr.Dst
					}
					if s.ShardOf(key) != i {
						t.Fatalf("n=%d inverted=%v: shard %d holds %v, owned by %d", n, inverted, i, pr, s.ShardOf(key))
					}
				}
			}
			if len(owner) != len(want) {
				t.Fatalf("n=%d inverted=%v: shards hold %d pairs, want %d", n, inverted, len(owner), len(want))
			}
		}
	}
}

// TestGatherUnionPassesDuplicates: a Gather emits the multiset union of
// its children, in no particular order, duplicates included — with one
// sender per child, and with fewer senders, each draining child after
// child, the empty one included.
func TestGatherUnionPassesDuplicates(t *testing.T) {
	mk := func(prs ...Pair) Operator { return &sliceOp{pairs: prs} }
	kids := [][]Pair{
		{pp(1, 1), pp(4, 2)},
		{pp(2, 7), pp(4, 2), pp(9, 0), pp(4, 2)},
		{},
	}
	for _, senders := range []int{0, 1, 2} {
		var ops []Operator
		var want []Pair
		for _, k := range kids {
			ops = append(ops, mk(k...))
			want = append(want, k...)
		}
		g := NewGather(ops, senders, 2, nil)
		got := Run(g)
		if !multisetsEqual(multiset(got), multiset(want)) {
			t.Fatalf("senders=%d: got %v, want the multiset %v", senders, got, want)
		}
		if g.Rows() != len(want) {
			t.Fatalf("senders=%d: Rows = %d, want %d", senders, g.Rows(), len(want))
		}
		// Exhausted gathers have quiesced themselves; extra calls are no-ops.
		g.Quiesce()
		if n := g.NextBatch(make([]Pair, 4)); n != 0 {
			t.Fatalf("senders=%d: NextBatch after exhaustion = %d", senders, n)
		}
	}
}

func TestGatherCancellation(t *testing.T) {
	// A large synthetic stream per child (and one empty child); cancel
	// after the first batch and verify Quiesce returns (senders exit)
	// rather than deadlocking, with a sender per child or one for all.
	big := make([]Pair, 10000)
	for i := range big {
		big[i] = Pair{Src: graph.NodeID(i), Dst: graph.NodeID(i % 7)}
	}
	for _, senders := range []int{0, 1} {
		ctx, cancel := context.WithCancel(context.Background())
		g := NewGather([]Operator{&sliceOp{pairs: big}, &sliceOp{}, &sliceOp{pairs: big}}, senders, 64, ctx)
		buf := make([]Pair, 32)
		if n := g.NextBatch(buf); n == 0 {
			t.Fatalf("senders=%d: no pairs before cancellation", senders)
		}
		cancel()
		for i := 0; i < 1000; i++ {
			if g.NextBatch(buf) == 0 {
				break
			}
		}
		g.Quiesce() // must not hang
		if n := g.NextBatch(buf); n != 0 {
			t.Fatalf("senders=%d: NextBatch after cancel+quiesce = %d", senders, n)
		}
	}
}

// TestGatherAbandonedQuiesce: a tree abandoned mid-stream (no
// cancellation, just stopped pulling) must be stoppable via the package
// Quiesce walker.
func TestGatherAbandonedQuiesce(t *testing.T) {
	big := make([]Pair, 10000)
	for i := range big {
		big[i] = Pair{Src: graph.NodeID(i), Dst: 1}
	}
	g := NewGather([]Operator{&sliceOp{pairs: big}}, 0, 64, nil)
	if n := g.NextBatch(make([]Pair, 8)); n == 0 {
		t.Fatal("no pairs")
	}
	union := NewUnionDistinctSized([]Operator{g}, 16)
	Quiesce(union) // walks to the Gather; must not hang
	// Stats are now stable.
	if g.Rows() == 0 {
		t.Fatal("gather reported no rows")
	}
	if n := g.NextBatch(make([]Pair, 8)); n != 0 {
		t.Fatalf("NextBatch after Quiesce = %d", n)
	}
}

// endless emits the same batch forever without allocating.
type endless struct{ rows int }

func (e *endless) NextBatch(buf []Pair) int {
	for i := range buf {
		buf[i] = pp(graph.NodeID(i), 1)
	}
	e.rows += len(buf)
	return len(buf)
}
func (e *endless) Rows() int    { return e.rows }
func (e *endless) Batches() int { return e.rows }
func (e *endless) Name() string { return "endless" }

// TestGatherZeroAllocsPerBatch: once started, a Gather hands batches from
// its senders to the consumer through recycled buffers — no allocation
// per batch on either side.
func TestGatherZeroAllocsPerBatch(t *testing.T) {
	g := NewGather([]Operator{&endless{}, &endless{}, &endless{}}, 0, 64, nil)
	defer g.Quiesce()
	buf := make([]Pair, 64)
	if g.NextBatch(buf) == 0 {
		t.Fatal("no pairs")
	}
	if avg := testing.AllocsPerRun(200, func() { g.NextBatch(buf) }); avg != 0 {
		t.Fatalf("started Gather allocates %.2f per batch, want 0", avg)
	}
}

// hasScatter reports whether a plan subtree holds a plan.Scatter.
func hasScatter(n plan.Node) bool {
	switch v := n.(type) {
	case *plan.Scatter:
		return true
	case *plan.Join:
		return hasScatter(v.Left) || hasScatter(v.Right)
	case *plan.Closure:
		for _, b := range v.Body {
			if hasScatter(b) {
				return true
			}
		}
		return v.Input != nil && hasScatter(v.Input)
	}
	return false
}

// TestScatterPlansMatchUnsharded is the exec-level differential test:
// every strategy's scattered plan over sharded storage produces exactly
// the unsharded result.
func TestScatterPlansMatchUnsharded(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 25, 70, 3)
	k := 2
	ix := buildIndex(t, g, k)
	h := histogram.BuildExact(ix)

	disjuncts := []pathindex.Path{
		{graph.Fwd(0), graph.Inv(1), graph.Fwd(2)},
		{graph.Inv(0), graph.Fwd(1)},
		{graph.Fwd(2)},
	}
	for _, n := range []int{1, 2, 4, 7} {
		s := buildShardedIndex(t, g, k, n)
		for _, strat := range plan.Strategies() {
			base := &plan.Planner{K: k, Hist: h, NumNodes: g.NumNodes()}
			p0, err := base.PlanPaths(disjuncts, true, strat)
			if err != nil {
				t.Fatal(err)
			}
			op0, err := Build(p0, ix, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want := asSet(Run(op0))

			sharded := &plan.Planner{K: k, Hist: h, NumNodes: g.NumNodes(), Shards: n}
			p1, err := sharded.PlanPaths(disjuncts, true, strat)
			if err != nil {
				t.Fatal(err)
			}
			if got := hasScatter(p1.Disjuncts[0]); got != (n > 1) {
				t.Fatalf("n=%d %v: three-label disjunct scattered = %v", n, strat, got)
			}
			if hasScatter(p1.Disjuncts[2]) {
				t.Fatalf("n=%d %v: a lone scan scattered", n, strat)
			}
			op1, err := Build(p1, s, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := asSet(Run(op1))
			if !setsEqual(got, want) {
				t.Errorf("n=%d %v: %d pairs, want %d", n, strat, len(got), len(want))
			}
			// Scattered plans also run correctly over unsharded storage
			// (the Scatter is transparent).
			op2, err := Build(p1, ix, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !setsEqual(asSet(Run(op2)), want) {
				t.Errorf("n=%d %v: scattered plan over unsharded storage diverged", n, strat)
			}
		}
	}
}

// mergeJoinPlan is the paper's merge join left ⋈ right: left scanned
// inverted, right forward, optionally under a Scatter.
func mergeJoinPlan(left, right pathindex.Path, shards int) plan.Node {
	var n plan.Node = &plan.Join{
		Left:  &plan.Scan{Segment: left, Inverted: true},
		Right: &plan.Scan{Segment: right},
		Algo:  plan.Merge,
	}
	if shards > 0 {
		n = &plan.Scatter{Child: n, Shards: shards}
	}
	return n
}

// TestCoPartitionedMergeJoin is the co-partitioning property: on random
// graphs, the per-shard merge joins under one Gather emit exactly the
// unsharded merge join's multiset of pairs — every match is found by the
// one shard owning its join node — at 1/2/4/7 shards, over heap shards,
// reopened on-disk shards, and a Levels stack over a sharded base after
// an update. Without the Scatter, a merge join over several shards is
// refused.
func TestCoPartitionedMergeJoin(t *testing.T) {
	const k = 2
	labels := []graph.DirLabel{graph.Fwd(0), graph.Inv(0), graph.Fwd(1), graph.Inv(1)}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 30, 70, 2)
		var batch []graph.LabeledEdge
		for i := 0; i < 25; i++ {
			batch = append(batch, graph.LabeledEdge{
				Src:   g.NodeName(graph.NodeID(r.Intn(30))),
				Label: g.LabelName(graph.LabelID(r.Intn(2))),
				Dst:   fmt.Sprint(r.Intn(34)), // a few new nodes
			})
		}
		g2, err := g.ExtendFrozen(batch)
		if err != nil {
			t.Fatal(err)
		}
		ix, ix2 := buildIndex(t, g, k), buildIndex(t, g2, k)
		randPath := func() pathindex.Path {
			p := pathindex.Path{labels[r.Intn(len(labels))]}
			if r.Intn(2) == 0 {
				p = append(p, labels[r.Intn(len(labels))])
			}
			return p
		}
		joins := make([][2]pathindex.Path, 6)
		for i := range joins {
			joins[i] = [2]pathindex.Path{randPath(), randPath()}
		}
		for _, n := range []int{1, 2, 4, 7} {
			heap := buildShardedIndex(t, g, k, n)
			dir := filepath.Join(t.TempDir(), "shards.pixd")
			if err := heap.SaveSharded(dir); err != nil {
				t.Fatal(err)
			}
			disk, err := pathindex.OpenSharded(dir, g)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { disk.Close() })
			d, err := pathindex.BuildDelta(heap, g2)
			if err != nil {
				t.Fatal(err)
			}
			levels, err := pathindex.PushTier(heap, pathindex.NewTier(d, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			suts := []struct {
				name   string
				s, ref pathindex.Storage
			}{{"heap", heap, ix}, {"disk", disk, ix}, {"levels", levels, ix2}}
			for _, sut := range suts {
				for _, j := range joins {
					want := multiset(Run(mustBuild(t, mergeJoinPlan(j[0], j[1], 0), sut.ref)))
					got := multiset(Run(mustBuild(t, mergeJoinPlan(j[0], j[1], n), sut.s)))
					if !multisetsEqual(got, want) {
						t.Fatalf("seed %d %s n=%d %v⋈%v: scattered join differs from the unsharded one", seed, sut.name, n, j[0], j[1])
					}
					_, err := buildNode(mergeJoinPlan(j[0], j[1], 0), sut.s, BuildOptions{})
					if (err != nil) != (n > 1) {
						t.Fatalf("seed %d %s n=%d: unscattered merge join over sharded storage: err = %v", seed, sut.name, n, err)
					}
					if n > 1 && !strings.Contains(err.Error(), "Scatter") {
						t.Fatalf("error does not name the missing scatter: %v", err)
					}
				}
			}
		}
	}
}

func mustBuild(t *testing.T, n plan.Node, ix pathindex.Storage) Operator {
	t.Helper()
	op, err := buildNode(n, ix, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return op
}

// TestScatterExplainShape: the plan renders the exchange on the
// co-partitioned join, and nothing broadcasts.
func TestScatterExplainShape(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := randomGraph(r, 15, 30, 2)
	ix := buildIndex(t, g, 2)
	h := histogram.BuildExact(ix)
	pl := &plan.Planner{K: 2, Hist: h, NumNodes: g.NumNodes(), Shards: 4}
	p, err := pl.PlanPaths([]pathindex.Path{{graph.Fwd(0), graph.Fwd(1), graph.Fwd(0)}}, false, plan.SemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	out := p.Format(g)
	if !strings.Contains(out, "scatter ×4 [co-partitioned on join node] → gather") || strings.Contains(out, "broadcast") {
		t.Fatalf("EXPLAIN lacks the co-partitioned scatter shape:\n%s", out)
	}
}
