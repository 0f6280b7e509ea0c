package exec

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
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
// exactly the unsharded relation, each pair once, at every shard count;
// the per-shard sub-scans are disjoint, and each holds only pairs whose
// source its shard owns.
func TestShardedSegmentScan(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := randomGraph(r, 25, 60, 2)
	ix := buildIndex(t, g, 2)
	p := pathindex.Path{graph.Fwd(0), graph.Fwd(1)}
	want := asSet(Run(newSegmentScan(ix, p)))
	for _, n := range []int{1, 2, 4, 7} {
		s := buildShardedIndex(t, g, 2, n)
		got := Run(newSegmentScan(s, p))
		if len(got) != len(want) || !setsEqual(asSet(got), want) {
			t.Fatalf("n=%d: %d pairs (%d distinct), want %d", n, len(got), len(asSet(got)), len(want))
		}
		owner := map[Pair]int{}
		for i := 0; i < n; i++ {
			for _, pr := range Run(newSegmentScan(s.Shard(i), p)) {
				if prev, dup := owner[pr]; dup {
					t.Fatalf("n=%d: %v in shards %d and %d", n, pr, prev, i)
				}
				owner[pr] = i
				if s.ShardOf(pr.Src) != i {
					t.Fatalf("n=%d: shard %d holds %v, owned by %d", n, i, pr, s.ShardOf(pr.Src))
				}
			}
		}
		if len(owner) != len(want) {
			t.Fatalf("n=%d: shards hold %d pairs, want %d", n, len(owner), len(want))
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

// TestShardedPlansMatchUnsharded is the exec-level differential test:
// every strategy's plan run over sharded storage produces exactly the
// result it produces over the unsharded index, each pair once.
func TestShardedPlansMatchUnsharded(t *testing.T) {
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
	pl := &plan.Planner{K: k, Hist: h, NumNodes: g.NumNodes()}
	for _, strat := range plan.Strategies() {
		p, err := pl.PlanPaths(disjuncts, true, strat)
		if err != nil {
			t.Fatal(err)
		}
		op0, err := Build(p, ix, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := asSet(Run(op0))
		for _, n := range []int{1, 2, 4, 7} {
			op1, err := Build(p, buildShardedIndex(t, g, k, n), BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := Run(op1)
			if len(got) != len(want) || !setsEqual(asSet(got), want) {
				t.Errorf("n=%d %v: %d pairs (%d distinct), want %d", n, strat, len(got), len(asSet(got)), len(want))
			}
		}
	}
}

// TestGroupJoinOverShards: a group join whose left input is a ConcatScan
// of shard runs — grouped by source, not in ascending source order —
// equals a nested loop plus a set, each pair once, on random graphs at
// 1/2/4/7 shards and batch sizes 1, 3 and 1024, over heap shards,
// reopened v3 shards, and a Levels stack over a sharded base whose tier
// adds nodes as sources and targets. A root union over two such joins
// cannot merge them by source once there are several shards: it dedups
// through its hash set and still equals the union of the oracles.
func TestGroupJoinOverShards(t *testing.T) {
	const k = 2
	labels := []graph.DirLabel{graph.Fwd(0), graph.Inv(0), graph.Fwd(1), graph.Inv(1)}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 30, 70, 2)
		var batch []graph.LabeledEdge
		for i := 0; i < 25; i++ {
			batch = append(batch, graph.LabeledEdge{
				Src:   fmt.Sprint(r.Intn(34)), // a few new nodes on either side
				Label: g.LabelName(graph.LabelID(r.Intn(2))),
				Dst:   fmt.Sprint(r.Intn(34)),
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
			}{{"heap", heap, ix}, {"v3", disk, ix}, {"levels", levels, ix2}}
			for _, sut := range suts {
				oracle := func(j [2]pathindex.Path) map[Pair]bool {
					want, _ := nestedLoopJoin(Run(NewIndexScan(sut.ref, j[0])), Run(NewIndexScan(sut.ref, j[1])))
					return want
				}
				join := func(j [2]pathindex.Path, bs int) Operator {
					return NewGroupJoin(newSegmentScan(sut.s, j[0]), newSegmentScan(sut.s, j[1]), bs)
				}
				for i, j := range joins {
					want := oracle(j)
					for _, bs := range []int{1, 3, 1024} {
						where := fmt.Sprintf("seed %d %s n=%d batch=%d %v⋈%v", seed, sut.name, n, bs, j[0], j[1])
						left := newSegmentScan(sut.s, j[0])
						if _, concat := left.(*ConcatScan); concat != (n > 1) || !sourceGrouped(left) {
							t.Fatalf("%s: left input is a %s", where, left.Name())
						}
						got := RunSized(join(j, bs), bs)
						if len(got) != len(want) || !setsEqual(asSet(got), want) {
							t.Fatalf("%s: %d pairs (%d distinct), oracle %d", where, len(got), len(asSet(got)), len(want))
						}
						next := joins[(i+1)%len(joins)]
						u := NewUnionDistinctSized([]Operator{join(j, bs), join(next, bs)}, bs)
						if u.bySource != (n == 1) {
							t.Fatalf("%s: root union by source = %v", where, u.bySource)
						}
						both := oracle(next)
						for pr := range want {
							both[pr] = true
						}
						if got := RunSized(u, bs); len(got) != len(both) || !setsEqual(asSet(got), both) {
							t.Fatalf("%s: union of two joins has %d pairs (%d distinct), oracle %d", where, len(got), len(asSet(got)), len(both))
						}
					}
				}
			}
		}
	}
}
