package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/reachability"
)

// bruteClosure computes input ∘ body* by naive iteration to fixpoint.
func bruteClosure(input, body map[Pair]bool) map[Pair]bool {
	total := map[Pair]bool{}
	for pr := range input {
		total[pr] = true
	}
	for {
		added := false
		for pr := range total {
			for b := range body {
				if b.Src != pr.Dst {
					continue
				}
				ext := Pair{Src: pr.Src, Dst: b.Dst}
				if !total[ext] {
					total[ext] = true
					added = true
				}
			}
		}
		if !added {
			return total
		}
	}
}

// bfsClosure is the per-source reference for input ∘ (body[0] ∪ …)*: a
// plain BFS over the body relation from each source's seed targets.
func bfsClosure(input []Pair, body [][]Pair) map[Pair]bool {
	adj := map[graph.NodeID][]graph.NodeID{}
	for _, b := range body {
		for _, p := range b {
			adj[p.Src] = append(adj[p.Src], p.Dst)
		}
	}
	seeds := map[graph.NodeID][]graph.NodeID{}
	for _, p := range input {
		seeds[p.Src] = append(seeds[p.Src], p.Dst)
	}
	out := map[Pair]bool{}
	for src, targets := range seeds {
		seen := map[graph.NodeID]bool{}
		var queue []graph.NodeID
		visit := func(v graph.NodeID) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		}
		for _, t := range targets {
			visit(t)
		}
		for i := 0; i < len(queue); i++ {
			out[Pair{Src: src, Dst: queue[i]}] = true
			for _, v := range adj[queue[i]] {
				visit(v)
			}
		}
	}
	return out
}

// sliceOp serves a fixed pair slice as an Operator, for driving the
// closure directly.
type sliceOp struct {
	pairs   []Pair
	pos     int
	rows    int
	batches int
}

func (s *sliceOp) NextBatch(buf []Pair) int {
	n := copy(buf, s.pairs[s.pos:])
	s.pos += n
	s.rows += n
	if n > 0 {
		s.batches++
	}
	return n
}
func (s *sliceOp) Rows() int    { return s.rows }
func (s *sliceOp) Batches() int { return s.batches }
func (s *sliceOp) Name() string { return "slice" }

func pairsOf(m map[Pair]bool) []Pair {
	out := make([]Pair, 0, len(m))
	for pr := range m {
		out = append(out, pr)
	}
	sortPairs(out)
	return out
}

// checkClosure drains op at batch size bs and requires exactly want,
// with no pair emitted twice.
func checkClosure(t testing.TB, where string, op Operator, bs int, want map[Pair]bool) {
	t.Helper()
	got := RunSized(op, bs)
	seen := make(map[Pair]bool, len(got))
	for _, p := range got {
		if seen[p] {
			t.Fatalf("%s: pair %v emitted twice", where, p)
		}
		seen[p] = true
	}
	if !setsEqual(seen, want) {
		t.Fatalf("%s: got %d pairs, want %d", where, len(seen), len(want))
	}
	if op.Rows() != len(want) {
		t.Fatalf("%s: Rows() = %d, want %d", where, op.Rows(), len(want))
	}
}

// checkStreamClosure runs StreamClosure over slice-served input and body
// relations against the BFS reference at each batch size.
func checkStreamClosure(t testing.TB, where string, input []Pair, body [][]Pair) {
	t.Helper()
	want := bfsClosure(input, body)
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		ops := make([]Operator, len(body))
		for i, b := range body {
			ops[i] = &sliceOp{pairs: b}
		}
		checkClosure(t, fmt.Sprintf("%s bs=%d", where, bs), NewStreamClosure(&sliceOp{pairs: input}, ops...), bs, want)
	}
}

// TestClosureOperatorFixpoint drives the closure operator over random
// input and body relations and compares against the naive fixpoint, for
// several batch sizes including 1.
func TestClosureOperatorFixpoint(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(8)
		input := map[Pair]bool{}
		body := map[Pair]bool{}
		for i := 0; i < r.Intn(20); i++ {
			input[Pair{Src: graph.NodeID(r.Intn(n)), Dst: graph.NodeID(r.Intn(n))}] = true
		}
		for i := 0; i < r.Intn(20); i++ {
			body[Pair{Src: graph.NodeID(r.Intn(n)), Dst: graph.NodeID(r.Intn(n))}] = true
		}
		want := bruteClosure(input, body)
		for _, bs := range []int{1, 3, DefaultBatchSize} {
			op := NewStreamClosure(&sliceOp{pairs: pairsOf(input)}, &sliceOp{pairs: pairsOf(body)})
			checkClosure(t, fmt.Sprintf("trial %d bs %d", trial, bs), op, bs, want)
		}
	}
}

// TestStreamClosureDifferential pins the condensation walk to the
// per-source BFS reference on the shapes that stress it: cycles and
// self-loops, duplicate body pairs within and across body operators,
// seeds outside the body graph, several seeds of one source inside one
// component, and inputs given as identity and index scans.
func TestStreamClosureDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	randPairs := func(count, n int) []Pair {
		out := make([]Pair, count)
		for i := range out {
			out[i] = Pair{Src: graph.NodeID(r.Intn(n)), Dst: graph.NodeID(r.Intn(n))}
		}
		return out
	}
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(14)
		b1 := randPairs(r.Intn(3*n), n)
		b2 := append(randPairs(r.Intn(n), n), b1[:len(b1)/2]...) // overlaps b1
		b1 = append(b1, b1[:len(b1)/3]...)                       // repeats within b1
		b1 = append(b1, Pair{Src: 0, Dst: 0})                    // a self-loop
		// Seeds range past the body's nodes, and source 0 seeds twice into
		// the cycle 1→2→3→1.
		input := randPairs(r.Intn(2*n), n+5)
		cycle := []Pair{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 1}}
		input = append(input, Pair{Src: 0, Dst: 1}, Pair{Src: 0, Dst: 3}, Pair{Src: 0, Dst: 1})
		where := fmt.Sprintf("trial %d", trial)
		checkStreamClosure(t, where+" one body", input, [][]Pair{append(b1, cycle...)})
		checkStreamClosure(t, where+" three bodies", input, [][]Pair{b1, b2, cycle})
		checkStreamClosure(t, where+" empty body", input, nil)
	}

	g := randomGraph(r, 30, 45, 3)
	ix := buildIndex(t, g, 2)
	a := pathindex.Path{graph.Fwd(mustLabel(t, g, "a"))}
	bInv := pathindex.Path{graph.Inv(mustLabel(t, g, "b"))}
	c := pathindex.Path{graph.Fwd(mustLabel(t, g, "c"))}
	var identity []Pair
	for v := 0; v < g.NumNodes(); v++ {
		identity = append(identity, Pair{Src: graph.NodeID(v), Dst: graph.NodeID(v)})
	}
	for _, bs := range []int{1, 3, DefaultBatchSize} {
		body := func() []Operator { return []Operator{NewIndexScan(ix, bInv), NewIndexScan(ix, c)} }
		bodyPairs := [][]Pair{pairsOf(bruteCompose(g, bInv)), pairsOf(bruteCompose(g, c))}
		checkClosure(t, fmt.Sprintf("identity bs=%d", bs), NewStreamClosure(NewIdentityScan(g), body()...), bs,
			bfsClosure(identity, bodyPairs))
		checkClosure(t, fmt.Sprintf("scan bs=%d", bs), NewStreamClosure(NewIndexScan(ix, a), body()...), bs,
			bfsClosure(pairsOf(bruteCompose(g, a)), bodyPairs))
	}
}

// FuzzStreamClosure checks StreamClosure against the BFS reference on
// relations decoded from the fuzz input: each pair of bytes is one pair
// over 16 nodes, and the first byte splits them between the input and
// two body operators.
func FuzzStreamClosure(f *testing.F) {
	f.Add([]byte{0x21, 0, 1, 1, 2, 2, 0, 0, 3, 3, 3})
	f.Add([]byte{0x11, 5, 5, 5, 6, 6, 5, 7, 7, 9, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		var pairs []Pair
		for i := 1; i+1 < len(data); i += 2 {
			pairs = append(pairs, Pair{Src: graph.NodeID(data[i] & 15), Dst: graph.NodeID(data[i+1] & 15)})
		}
		cut1 := min(int(data[0]&15), len(pairs))
		cut2 := min(cut1+int(data[0]>>4), len(pairs))
		checkStreamClosure(t, fmt.Sprintf("input %x", data), pairs[:cut1], [][]Pair{pairs[cut1:cut2], pairs[cut2:]})
	})
}

// TestClosureOperatorChain checks the canonical a* shape: identity input
// closed over a chain relation, emitted grouped by ascending source.
func TestClosureOperatorChain(t *testing.T) {
	g := graph.New()
	for i := 0; i < 5; i++ {
		g.AddEdge(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1))
	}
	g.Freeze()
	ix := buildIndex(t, g, 2)
	a := pathindex.Path{graph.Fwd(mustLabel(t, g, "a"))}

	got := Run(NewStreamClosure(NewIdentityScan(g), NewIndexScan(ix, a)))
	// 6 chain nodes: all (i,j) with i <= j, i.e. 6·7/2 = 21 pairs.
	if len(got) != 21 {
		t.Fatalf("chain a* closure: got %d pairs, want 21", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Src < got[i-1].Src {
			t.Fatalf("pair %d %v follows source %d: output not grouped by source", i, got[i], got[i-1].Src)
		}
	}
}

func mustLabel(t *testing.T, g *graph.Graph, name string) graph.LabelID {
	t.Helper()
	l, ok := g.LookupLabel(name)
	if !ok {
		t.Fatalf("label %q missing", name)
	}
	return l
}

// TestBuildClosurePlan runs a full plan containing a Closure node
// through exec.Build and compares with brute force.
func TestBuildClosurePlan(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := randomGraph(r, 12, 20, 2)
	ix := buildIndex(t, g, 2)
	hist := histogram.BuildExact(ix)
	pl := &plan.Planner{K: 2, Hist: hist, NumNodes: g.NumNodes()}

	a := pathindex.Path{graph.Fwd(mustLabel(t, g, "a"))}
	b := pathindex.Path{graph.Fwd(mustLabel(t, g, "b"))}

	// a/b* : seg a followed by closure of b.
	seq := plan.Seq{Elems: []plan.SeqElem{
		{Seg: a},
		{Star: []plan.Seq{{Elems: []plan.SeqElem{{Seg: b}}}}},
	}}
	p, err := pl.PlanQuery(nil, []plan.Seq{seq}, false, plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	op, err := Build(p, ix, BuildOptions{PerJoinDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	got := Run(op)
	sortPairs(got)

	want := pairsOf(bruteClosure(bruteCompose(g, a), bruteCompose(g, b)))
	if len(got) != len(want) {
		t.Fatalf("a/b*: got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("a/b*: pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestBuildReachPlan runs the restricted star (a|b^-)* — the shape a
// reachability index answers — through the planner and exec.Build: it
// is an ordinary Closure over the identity, and its answer equals
// reachability.Index.Pairs.
func TestBuildReachPlan(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	g := randomGraph(r, 15, 25, 2)
	ix := buildIndex(t, g, 2)
	hist := histogram.BuildExact(ix)
	pl := &plan.Planner{K: 2, Hist: hist, NumNodes: g.NumNodes()}

	a := graph.Fwd(mustLabel(t, g, "a"))
	b := graph.Inv(mustLabel(t, g, "b"))
	seq := plan.Seq{Elems: []plan.SeqElem{{Star: []plan.Seq{
		{Elems: []plan.SeqElem{{Seg: pathindex.Path{a}}}},
		{Elems: []plan.SeqElem{{Seg: pathindex.Path{b}}}},
	}}}}
	p, err := pl.PlanQuery(nil, []plan.Seq{seq}, false, plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	if cl, ok := p.Disjuncts[0].(*plan.Closure); !ok || cl.Input != nil {
		t.Fatalf("restricted star planned as %T, want a *plan.Closure over the identity", p.Disjuncts[0])
	}
	op, err := Build(p, ix, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := Run(op)
	sortPairs(got)

	rix, err := reachability.Build(g, []graph.DirLabel{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := rix.Pairs()
	if len(got) != len(want) {
		t.Fatalf("(a|b^-)*: got %d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("(a|b^-)*: pair %d = %v, want %v", i, got[i], want[i])
		}
	}
}
