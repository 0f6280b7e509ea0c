// Package reachability implements reachability-index-based RPQ evaluation
// — approach (3) in the introduction of Fletcher, Peters & Poulovassilis
// (EDBT 2016): restricted uses of Kleene star are answered from an
// off-the-shelf reachability index.
//
// The index condenses the subgraph induced by a set of direction-
// qualified labels into its strongly connected components (Tarjan) and
// precomputes, for every component, the set of reachable components as a
// bitset in reverse topological order. Queries of the restricted shape
// (ℓ1 ∪ … ∪ ℓm)* — and only that shape — are answered in O(1) per node
// pair. CanHandle makes the restriction explicit: arbitrary RPQs are
// rejected, which is exactly the limitation the paper's path-index
// approach removes.
package reachability

import (
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/rpq"
)

// Index answers reachability queries over the subgraph induced by a fixed
// label set.
type Index struct {
	g      *graph.Graph
	labels []graph.DirLabel
	comp   []int32    // node -> SCC id
	reach  [][]uint64 // SCC id -> bitset of reachable SCC ids (including itself)
	numSCC int
}

// Build constructs a reachability index for the subgraph of g induced by
// labels (each step follows any one of the given direction-qualified
// labels).
func Build(g *graph.Graph, labels []graph.DirLabel) (*Index, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("reachability: graph must be frozen")
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("reachability: at least one label required")
	}
	ix := &Index{g: g, labels: labels}
	ix.computeSCC()
	ix.computeReach()
	return ix, nil
}

// succ iterates the label-set successors of n.
func (ix *Index) succ(n graph.NodeID, fn func(graph.NodeID)) {
	for _, d := range ix.labels {
		for _, m := range ix.g.Out(n, d) {
			fn(m)
		}
	}
}

// computeSCC runs Tarjan's algorithm iteratively (explicit stack, so deep
// graphs cannot overflow the goroutine stack).
func (ix *Index) computeSCC() {
	n := ix.g.NumNodes()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	ix.comp = make([]int32, n)
	for i := range index {
		index[i] = unvisited
		ix.comp[i] = unvisited
	}
	var stack []graph.NodeID
	var counter int32

	type frame struct {
		node graph.NodeID
		succ []graph.NodeID // materialized successors
		next int
	}
	succsOf := func(v graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		ix.succ(v, func(m graph.NodeID) { out = append(out, m) })
		return out
	}

	for start := 0; start < n; start++ {
		if index[start] != unvisited {
			continue
		}
		var call []frame
		push := func(v graph.NodeID) {
			index[v] = counter
			low[v] = counter
			counter++
			stack = append(stack, v)
			onStack[v] = true
			call = append(call, frame{node: v, succ: succsOf(v)})
		}
		push(graph.NodeID(start))
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.next < len(f.succ) {
				w := f.succ[f.next]
				f.next++
				if index[w] == unvisited {
					push(w)
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
				continue
			}
			// Post-order: pop the frame.
			v := f.node
			if low[v] == index[v] {
				id := int32(ix.numSCC)
				ix.numSCC++
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					ix.comp[w] = id
					if w == v {
						break
					}
				}
			}
			call = call[:len(call)-1]
			if len(call) > 0 {
				parent := call[len(call)-1].node
				if low[v] < low[parent] {
					low[parent] = low[v]
				}
			}
		}
	}
}

// computeReach builds per-SCC descendant bitsets. Tarjan assigns SCC ids
// in reverse topological order (a component is numbered only after all
// components it can reach), so a single ascending pass suffices.
func (ix *Index) computeReach() {
	words := (ix.numSCC + 63) / 64
	ix.reach = make([][]uint64, ix.numSCC)
	for c := 0; c < ix.numSCC; c++ {
		ix.reach[c] = make([]uint64, words)
		ix.reach[c][c/64] |= 1 << (uint(c) % 64)
	}
	// Collect condensation edges.
	edges := make(map[int64]bool)
	for v := 0; v < ix.g.NumNodes(); v++ {
		cv := ix.comp[v]
		ix.succ(graph.NodeID(v), func(m graph.NodeID) {
			cm := ix.comp[m]
			if cv != cm {
				edges[int64(cv)<<32|int64(cm)] = true
			}
		})
	}
	// Ascending SCC id order: successors have smaller ids, already final.
	bySource := make([][]int32, ix.numSCC)
	for e := range edges {
		from, to := int32(e>>32), int32(e&0xffffffff)
		bySource[from] = append(bySource[from], to)
	}
	for c := 0; c < ix.numSCC; c++ {
		for _, to := range bySource[c] {
			dst := ix.reach[c]
			for w, bits := range ix.reach[to] {
				dst[w] |= bits
			}
		}
	}
}

// NumSCCs returns the number of strongly connected components.
func (ix *Index) NumSCCs() int { return ix.numSCC }

// Reachable reports whether dst is reachable from src by zero or more
// steps over the index's label set — i.e. (src,dst) ∈ (ℓ1∪…∪ℓm)*(G).
func (ix *Index) Reachable(src, dst graph.NodeID) bool {
	cs, cd := ix.comp[src], ix.comp[dst]
	return ix.reach[cs][cd/64]&(1<<(uint(cd)%64)) != 0
}

// Pairs enumerates the full (ℓ1∪…∪ℓm)* relation, sorted by (src,dst).
// The relation includes all identity pairs.
func (ix *Index) Pairs() []pathindex.Pair {
	// Group nodes by component for fast expansion.
	members := make([][]graph.NodeID, ix.numSCC)
	for v := 0; v < ix.g.NumNodes(); v++ {
		members[ix.comp[v]] = append(members[ix.comp[v]], graph.NodeID(v))
	}
	var out []pathindex.Pair
	for cs := 0; cs < ix.numSCC; cs++ {
		for cd := 0; cd < ix.numSCC; cd++ {
			if ix.reach[cs][cd/64]&(1<<(uint(cd)%64)) == 0 {
				continue
			}
			for _, s := range members[cs] {
				for _, t := range members[cd] {
					out = append(out, pathindex.Pair{Src: s, Dst: t})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// CanHandle reports whether e has the restricted shape this approach
// supports — (ℓ1 ∪ … ∪ ℓm)* or ℓ* — returning the label set. Labels
// absent from g make the query unsupported here (their steps cannot be
// represented in the induced subgraph; the relation degenerates).
func CanHandle(e rpq.Expr, g *graph.Graph) ([]graph.DirLabel, bool) {
	rep, ok := e.(rpq.Repeat)
	if !ok || rep.Min != 0 || rep.Max != rpq.Unbounded {
		return nil, false
	}
	var steps []rpq.Step
	switch sub := rep.Sub.(type) {
	case rpq.Step:
		steps = []rpq.Step{sub}
	case rpq.Union:
		for _, alt := range sub.Alts {
			s, ok := alt.(rpq.Step)
			if !ok {
				return nil, false
			}
			steps = append(steps, s)
		}
	default:
		return nil, false
	}
	var labels []graph.DirLabel
	for _, s := range steps {
		l, ok := g.LookupLabel(s.Label)
		if !ok {
			return nil, false
		}
		if s.Inverse {
			labels = append(labels, graph.Inv(l))
		} else {
			labels = append(labels, graph.Fwd(l))
		}
	}
	return labels, true
}

// Eval answers e via the reachability index if e has the supported shape,
// and returns an error otherwise — demonstrating the restriction of
// approach (3).
func Eval(e rpq.Expr, g *graph.Graph) ([]pathindex.Pair, error) {
	labels, ok := CanHandle(e, g)
	if !ok {
		return nil, fmt.Errorf("reachability: unsupported RPQ %s: only (l1|...|lm)* queries can use a reachability index", e)
	}
	ix, err := Build(g, labels)
	if err != nil {
		return nil, err
	}
	return ix.Pairs(), nil
}
