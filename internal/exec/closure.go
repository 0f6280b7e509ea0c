// The Kleene-closure operator. StreamClosure evaluates input ∘ body*
// over the strongly-connected-component condensation of the body
// relation: every member of a component reaches every other, so a
// per-source search walks the (much smaller) component DAG and emits
// whole components. It is the reachability-index algorithm of the
// paper's approach 3 — SCC condensation plus a descent over the DAG —
// built once per execution from whatever body the plan supplies, with
// no precomputed transitive closure and no cache.

package exec

import (
	"cmp"
	"slices"

	"repro/internal/graph"
)

// adjacency is a relation in compressed sparse rows: node v's
// successors are to[off[v]:off[v+1]].
type adjacency struct {
	off []int
	to  []graph.NodeID
}

// newAdjacency lays pairs out as rows over nodes 0..n-1; every pair's
// endpoints must be below n. Duplicate pairs are kept (the condensation
// does not mind them).
func newAdjacency(n int, pairs []Pair) adjacency {
	off := make([]int, n+1)
	for _, p := range pairs {
		off[p.Src+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	to := make([]graph.NodeID, len(pairs))
	next := slices.Clone(off[:n])
	for _, p := range pairs {
		to[next[p.Src]] = p.Dst
		next[p.Src]++
	}
	return adjacency{off: off, to: to}
}

// condensation is the SCC condensation of a body relation, restricted to
// the nodes its roots reach. It is immutable once built, so any number of
// traversals — one per source range, say — may share it.
type condensation struct {
	// comp maps a node to its component, -1 for nodes no root reaches.
	comp []int32
	// Component c's members are members[memOff[c]:memOff[c+1]] and its
	// successors in the component DAG (deduplicated, no self-loops) are
	// dag[dagOff[c]:dagOff[c+1]].
	memOff  []int
	members []graph.NodeID
	dagOff  []int
	dag     []int32
}

// condense runs Tarjan's algorithm from every root over body, then
// collects the condensation DAG. The depth-first search keeps its own
// stack of frames, so long chains cost heap, not goroutine stack.
// Components are numbered in reverse topological order.
func condense(body adjacency, roots []graph.NodeID) *condensation {
	n := len(body.off) - 1
	c := &condensation{comp: make([]int32, n), memOff: []int{0}}
	for i := range c.comp {
		c.comp[i] = -1
	}
	// order is the DFS preorder number plus one (0: unvisited); a visited
	// node without a component is on Tarjan's stack.
	order := make([]int32, n)
	low := make([]int32, n)
	var stack []graph.NodeID
	type frame struct {
		v    graph.NodeID
		edge int // next position in body.to
	}
	var call []frame
	var visited int32
	push := func(v graph.NodeID) {
		visited++
		order[v], low[v] = visited, visited
		stack = append(stack, v)
		call = append(call, frame{v: v, edge: body.off[v]})
	}
	for _, r := range roots {
		if order[r] != 0 {
			continue
		}
		push(r)
		for len(call) > 0 {
			f := &call[len(call)-1]
			v := f.v
			if f.edge < body.off[v+1] {
				w := body.to[f.edge]
				f.edge++
				if order[w] == 0 {
					push(w)
				} else if c.comp[w] < 0 && order[w] < low[v] {
					low[v] = order[w]
				}
				continue
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				if p := call[len(call)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] != order[v] {
				continue
			}
			id := int32(len(c.memOff) - 1)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				c.comp[w] = id
				c.members = append(c.members, w)
				if w == v {
					break
				}
			}
			c.memOff = append(c.memOff, len(c.members))
		}
	}
	numComps := len(c.memOff) - 1
	c.dagOff = make([]int, 1, numComps+1)
	// mark[d] == s+1 once the edge s→d is recorded for component s.
	mark := make([]int32, numComps)
	for s := 0; s < numComps; s++ {
		for _, v := range c.members[c.memOff[s]:c.memOff[s+1]] {
			for _, w := range body.to[body.off[v]:body.off[v+1]] {
				if d := c.comp[w]; int(d) != s && mark[d] != int32(s+1) {
					mark[d] = int32(s + 1)
					c.dag = append(c.dag, d)
				}
			}
		}
		c.dagOff = append(c.dagOff, len(c.dag))
	}
	return c
}

// StreamClosure computes input ∘ body*, the Kleene closure of the union
// of its body operators applied to its input (an IdentityScan input
// gives the bare star). On the first NextBatch it drains the input into
// seeds sorted by source and the body straight into an adjacency, and
// condenses the body graph reachable from the seeds' targets. Then, for
// each source in turn, it marks the components of that source's seed
// targets, walks the component DAG breadth-first with a stamped
// visited array, and emits (source, member) for every member of every
// component reached — resuming mid-component across calls.
//
// The build is O(V + E_body); each source then costs O(components and
// DAG edges it reaches + pairs it emits). Memory is O(V + E_body + input),
// never proportional to the output. The output is duplicate-free
// (components partition the nodes, sources are distinct groups) and
// grouped by ascending source.
type StreamClosure struct {
	opBase
	input Operator
	body  []Operator

	cond    *condensation
	seeds   []Pair // input pairs sorted by (src, dst)
	si      int    // start of the next source group in seeds
	started bool

	src   graph.NodeID // source of the group being emitted
	seen  []uint32     // component -> stamp of the source group that last reached it
	stamp uint32
	queue []int32 // components the current source reaches, in BFS order
	qi    int     // next component of queue to expand and emit
	mi    int     // next member of the component being emitted
	mend  int     // end of that component's members
}

// NewStreamClosure returns the closure of the union of body applied to
// input.
func NewStreamClosure(input Operator, body ...Operator) *StreamClosure {
	return &StreamClosure{input: input, body: body}
}

func (c *StreamClosure) children() []Operator { return append([]Operator{c.input}, c.body...) }

// appendAll appends every pair op produces to dst, pulling through buf.
func appendAll(dst []Pair, op Operator, buf []Pair) []Pair {
	for {
		n := op.NextBatch(buf)
		if n == 0 {
			return dst
		}
		dst = append(dst, buf[:n]...)
	}
}

// start drains the input and the body and condenses the body over the
// nodes they mention.
func (c *StreamClosure) start() {
	c.started = true
	buf := make([]Pair, DefaultBatchSize)
	c.seeds = appendAll(nil, c.input, buf)
	if len(c.seeds) == 0 {
		return
	}
	slices.SortFunc(c.seeds, func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
	})
	var pairs []Pair
	for _, b := range c.body {
		pairs = appendAll(pairs, b, buf)
	}
	n := 0
	roots := make([]graph.NodeID, len(c.seeds))
	for i, s := range c.seeds {
		roots[i] = s.Dst
		n = max(n, int(s.Dst)+1)
	}
	for _, p := range pairs {
		n = max(n, int(p.Src)+1, int(p.Dst)+1)
	}
	c.cond = condense(newAdjacency(n, pairs), roots)
	c.seen = make([]uint32, len(c.cond.memOff)-1)
}

// nextSource loads the next source group: its seed targets' components
// start the BFS queue. It reports false when every group is done.
func (c *StreamClosure) nextSource() bool {
	if c.si >= len(c.seeds) {
		return false
	}
	c.src = c.seeds[c.si].Src
	c.stamp++
	c.queue = c.queue[:0]
	c.qi = 0
	for ; c.si < len(c.seeds) && c.seeds[c.si].Src == c.src; c.si++ {
		if d := c.cond.comp[c.seeds[c.si].Dst]; c.seen[d] != c.stamp {
			c.seen[d] = c.stamp
			c.queue = append(c.queue, d)
		}
	}
	return true
}

// NextBatch implements Operator.
func (c *StreamClosure) NextBatch(buf []Pair) int {
	if len(buf) == 0 || cancelled(c.ctx) {
		return 0
	}
	if !c.started {
		c.start()
	}
	n := 0
	for n < len(buf) {
		if c.mi < c.mend {
			k := min(c.mend-c.mi, len(buf)-n)
			for _, m := range c.cond.members[c.mi : c.mi+k] {
				buf[n] = Pair{Src: c.src, Dst: m}
				n++
			}
			c.mi += k
			continue
		}
		if c.qi < len(c.queue) {
			d := c.queue[c.qi]
			c.qi++
			for _, s := range c.cond.dag[c.cond.dagOff[d]:c.cond.dagOff[d+1]] {
				if c.seen[s] != c.stamp {
					c.seen[s] = c.stamp
					c.queue = append(c.queue, s)
				}
			}
			c.mi, c.mend = c.cond.memOff[d], c.cond.memOff[d+1]
			continue
		}
		if !c.nextSource() {
			break
		}
	}
	return c.emit(n)
}

// Name implements Operator.
func (c *StreamClosure) Name() string { return "closure" }
