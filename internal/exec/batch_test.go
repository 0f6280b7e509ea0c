package exec

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
)

// TestRunSizedInvariance: every operator tree must produce the same pair
// stream regardless of the batch size it is drained (and internally
// buffered) with — including size 1, which degenerates to the old
// tuple-at-a-time behavior.
func TestRunSizedInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	g := randomGraph(r, 30, 120, 2)
	ix := buildIndex(t, g, 2)
	left := pathindex.Path{graph.Fwd(0), graph.Inv(1)}
	right := pathindex.Path{graph.Fwd(1), graph.Fwd(0)}

	trees := map[string]func(batchSize int) Operator{
		"index-scan": func(int) Operator { return NewIndexScan(ix, left) },
		"hash-join": func(bs int) Operator {
			return NewHashJoinSized(
				NewIndexScan(ix, left),
				NewIndexScan(ix, right), true, bs)
		},
		"group-join": func(bs int) Operator {
			return NewGroupJoin(
				NewIndexScan(ix, left),
				NewIndexScan(ix, right), bs)
		},
		"distinct-over-join": func(bs int) Operator {
			return NewDistinct(NewHashJoinSized(
				NewIndexScan(ix, left),
				NewIndexScan(ix, right), true, bs))
		},
		"union": func(bs int) Operator {
			return NewUnionDistinct([]Operator{
				NewIndexScan(ix, left),
				NewIndexScan(ix, right),
			})
		},
		"union-hashed": func(bs int) Operator {
			return NewUnionDistinct([]Operator{
				NewHashJoinSized(NewIndexScan(ix, left), NewIndexScan(ix, right), false, bs),
				NewIndexScan(ix, right),
			})
		},
	}
	for name, mk := range trees {
		want := Run(mk(DefaultBatchSize))
		for _, bs := range []int{1, 2, 3, 7, 64, 100000} {
			got := RunSized(mk(bs), bs)
			if len(got) != len(want) {
				t.Fatalf("%s at batch=%d: %d pairs, want %d", name, bs, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s at batch=%d: pair %d = %v, want %v", name, bs, i, got[i], want[i])
				}
			}
		}
	}
}

// TestNextBatchContract: NextBatch never returns 0 before exhaustion and
// always returns 0 after it.
func TestNextBatchContract(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 20, 60, 2)
	ix := buildIndex(t, g, 2)
	op := NewGroupJoin(
		NewIndexScan(ix, pathindex.Path{graph.Fwd(0)}),
		NewIndexScan(ix, pathindex.Path{graph.Fwd(1)}), 4)
	buf := make([]Pair, 5)
	total := 0
	for {
		n := op.NextBatch(buf)
		if n < 0 || n > len(buf) {
			t.Fatalf("NextBatch returned %d for buffer of %d", n, len(buf))
		}
		if n == 0 {
			break
		}
		total += n
	}
	if total == 0 {
		t.Fatal("join produced nothing; pick a denser test graph")
	}
	for i := 0; i < 3; i++ {
		if n := op.NextBatch(buf); n != 0 {
			t.Fatalf("NextBatch after exhaustion returned %d", n)
		}
	}
	if op.Rows() != total {
		t.Errorf("Rows() = %d, drained %d", op.Rows(), total)
	}
}

// TestBatchCounters: an index scan drained with batch size B reports
// ceil(rows/B) batches, and CollectStats aggregates the counters.
func TestBatchCounters(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	g := randomGraph(r, 20, 50, 1)
	ix := buildIndex(t, g, 1)
	p := pathindex.Path{graph.Fwd(0)}
	rows := len(Run(NewIndexScan(ix, p)))
	if rows == 0 {
		t.Fatal("empty test relation")
	}
	for _, bs := range []int{1, 3, 1024} {
		s := NewIndexScan(ix, p)
		RunSized(s, bs)
		wantBatches := (rows + bs - 1) / bs
		if s.Batches() != wantBatches {
			t.Errorf("batch=%d: Batches() = %d, want %d", bs, s.Batches(), wantBatches)
		}
		if s.Rows() != rows {
			t.Errorf("batch=%d: Rows() = %d, want %d", bs, s.Rows(), rows)
		}
	}
	u := NewUnionDistinct([]Operator{NewIndexScan(ix, p)})
	Run(u)
	st := CollectStats(u)
	if st.BatchesByOperator["index-scan"] == 0 || st.BatchesByOperator["union-distinct"] == 0 {
		t.Errorf("batch counters missing from stats: %+v", st.BatchesByOperator)
	}
	if st.TotalBatches != st.BatchesByOperator["index-scan"]+st.BatchesByOperator["union-distinct"] {
		t.Errorf("TotalBatches = %d, want sum of per-operator counts", st.TotalBatches)
	}
}

// TestGroupJoinHubAcrossBatches: a hub cross product — 17 sources
// through one hub whose row of 11 targets outgrows the join's small
// batch buffers — must still be emitted in full, each pair once.
func TestGroupJoinHubAcrossBatches(t *testing.T) {
	g := graph.New()
	for i := 0; i < 17; i++ {
		g.AddEdge("s"+string(rune('a'+i)), "a", "hub")
	}
	for i := 0; i < 11; i++ {
		g.AddEdge("hub", "b", "t"+string(rune('a'+i)))
	}
	g.Freeze()
	ix := buildIndex(t, g, 1)
	a, _ := g.LookupLabel("a")
	b, _ := g.LookupLabel("b")
	for _, bs := range []int{1, 2, 5, 1024} {
		got := RunSized(NewGroupJoin(
			NewIndexScan(ix, pathindex.Path{graph.Fwd(a)}),
			NewIndexScan(ix, pathindex.Path{graph.Fwd(b)}), bs), bs)
		if len(got) != 17*11 || len(asSet(got)) != len(got) {
			t.Errorf("batch=%d: %d pairs, want %d", bs, len(got), 17*11)
		}
	}
}
