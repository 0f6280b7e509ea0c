package exec

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
)

// benchBatchSizes are the batch sizes compared by the operator
// micro-benchmarks; batch=1 reproduces the cost profile of the old
// tuple-at-a-time Volcano interface.
var benchBatchSizes = []int{1, 64, 1024}

var benchIx = struct {
	sync.Once
	ix *pathindex.Index
}{}

// benchIndex returns a shared k=2 index over a 2000-node, 3-label random
// graph — large enough that scans and joins stream tens of thousands of
// pairs per operator invocation.
func benchIndex(tb testing.TB) *pathindex.Index {
	tb.Helper()
	benchIx.Do(func() {
		r := rand.New(rand.NewSource(1))
		g := graph.New()
		nodes := 2000
		g.EnsureNodes(nodes)
		for _, name := range []string{"a", "b", "c"} {
			l := g.Label(name)
			for e := 0; e < 8000; e++ {
				g.AddEdgeID(graph.NodeID(r.Intn(nodes)), l, graph.NodeID(r.Intn(nodes)))
			}
		}
		g.Freeze()
		ix, err := pathindex.Build(g, 2, pathindex.BuildOptions{SkipPathsKCount: true})
		if err != nil {
			panic(err)
		}
		benchIx.ix = ix
	})
	return benchIx.ix
}

// drain pulls op dry with the given batch size, discarding output, and
// returns the number of pairs produced.
func drain(op Operator, batchSize int) int {
	buf := make([]Pair, batchSize)
	total := 0
	for {
		n := op.NextBatch(buf)
		if n == 0 {
			return total
		}
		total += n
	}
}

var benchScanPath = pathindex.Path{graph.Fwd(0), graph.Fwd(1)}
var benchLeftPath = pathindex.Path{graph.Fwd(0), graph.Inv(1)}
var benchRightPath = pathindex.Path{graph.Fwd(1), graph.Fwd(2)}

func benchOp(name string, ix *pathindex.Index, batchSize int) Operator {
	switch name {
	case "index-scan":
		return NewIndexScan(ix, benchScanPath)
	case "hash-join":
		return NewHashJoinSized(
			NewIndexScan(ix, benchLeftPath),
			NewIndexScan(ix, benchRightPath), true, batchSize)
	case "group-join":
		return NewGroupJoin(
			NewIndexScan(ix, benchLeftPath),
			NewIndexScan(ix, benchRightPath), batchSize)
	default:
		panic("unknown bench operator " + name)
	}
}

func benchOperator(b *testing.B, name string) {
	ix := benchIndex(b)
	for _, bs := range benchBatchSizes {
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			pairs := 0
			for i := 0; i < b.N; i++ {
				pairs = drain(benchOp(name, ix, bs), bs)
			}
			if pairs == 0 {
				b.Fatal("benchmark operator produced no pairs")
			}
			b.ReportMetric(float64(pairs), "pairs/op")
		})
	}
}

func BenchmarkIndexScan(b *testing.B) { benchOperator(b, "index-scan") }
func BenchmarkHashJoin(b *testing.B)  { benchOperator(b, "hash-join") }
func BenchmarkGroupJoin(b *testing.B) { benchOperator(b, "group-join") }

// BenchmarkDedup measures duplicate elimination over a join's output —
// the stream Distinct and UnionDistinct see, duplicates included — with
// the operators' flat pairSet, with the map[Pair]struct{} it replaced,
// kept here as the yardstick, and by source: the same pairs grouped by
// source through a UnionDistinct merging by source, whose stamped array
// is what group joins and by-source unions pay instead of a hash set.
func BenchmarkDedup(b *testing.B) {
	in := Run(benchOp("hash-join", benchIndex(b), DefaultBatchSize))
	out := make([]Pair, 0, len(in))
	report := func(b *testing.B) {
		if len(out) == 0 || len(out) == len(in) {
			b.Fatalf("%d of %d pairs distinct: not a dedup workload", len(out), len(in))
		}
		b.ReportMetric(float64(len(in)), "pairs/op")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(in)), "ns/pair")
	}
	b.Run("flat", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var seen pairSet
			out = out[:0]
			for _, pr := range in {
				if seen.add(pr) {
					out = append(out, pr)
				}
			}
		}
		report(b)
	})
	b.Run("by-source", func(b *testing.B) {
		bySrc := slices.Clone(in)
		slices.SortStableFunc(bySrc, func(x, y Pair) int { return cmp.Compare(x.Src, y.Src) })
		buf := make([]Pair, DefaultBatchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			u := NewUnionDistinct([]Operator{&sliceOp{pairs: bySrc}})
			u.bySource = true // the slice is grouped by source
			out = out[:0]
			for n := u.NextBatch(buf); n > 0; n = u.NextBatch(buf) {
				out = append(out, buf[:n]...)
			}
		}
		report(b)
	})
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen := map[Pair]struct{}{}
			out = out[:0]
			for _, pr := range in {
				if _, dup := seen[pr]; !dup {
					seen[pr] = struct{}{}
					out = append(out, pr)
				}
			}
		}
		report(b)
	})
}
