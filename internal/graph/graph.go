// Package graph provides the directed, edge-labeled graph data model used
// throughout pathdb. A graph assigns to each label in a finite vocabulary a
// finite binary edge relation over nodes, following the data model of
// Fletcher, Peters & Poulovassilis (EDBT 2016), Section 2.1.
//
// Graphs are built incrementally with AddEdge and then frozen with Freeze,
// which constructs per-label compressed sparse row (CSR) adjacency in both
// directions. All query-time accessors require a frozen graph. A frozen
// graph itself never changes, but it is not the end of the line: Freeze
// + ExtendFrozen form a persistent-structure pair, where ExtendFrozen
// derives a new frozen graph with additional edges (and possibly new
// nodes and labels) while the original keeps serving readers.
package graph

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// NodeID identifies a node. Node identifiers are dense, starting at 0.
type NodeID uint32

// LabelID identifies an edge label. Label identifiers are dense, starting
// at 0, in order of first appearance.
type LabelID uint32

// DirLabel is a direction-qualified label: either forward navigation along
// an edge with the underlying label, or backward navigation (the paper's
// ℓ⁻). The zero direction is forward.
type DirLabel uint32

// Fwd returns the forward-directed version of l.
func Fwd(l LabelID) DirLabel { return DirLabel(l << 1) }

// Inv returns the inverse-directed version of l (the paper's ℓ⁻).
func Inv(l LabelID) DirLabel { return DirLabel(l<<1 | 1) }

// Label returns the underlying label of d.
func (d DirLabel) Label() LabelID { return LabelID(d >> 1) }

// IsInverse reports whether d navigates backward along its label.
func (d DirLabel) IsInverse() bool { return d&1 == 1 }

// Flip returns d with its direction reversed.
func (d DirLabel) Flip() DirLabel { return d ^ 1 }

// Edge is a directed edge between two nodes. The label is implicit in the
// relation that contains the edge.
type Edge struct {
	Src, Dst NodeID
}

// Graph is a finite, directed, edge-labeled graph. The zero value is an
// empty, unfrozen graph ready for AddEdge calls.
type Graph struct {
	labelNames []string
	labelIDs   map[string]LabelID
	nodeNames  []string
	nodeIDs    map[string]NodeID

	// edges[l] lists the distinct edges of label l, sorted by (src,dst)
	// after Freeze.
	edges [][]Edge

	// adj[d] is the CSR adjacency for direction-qualified label d.
	adj    []csr
	frozen bool

	numEdges int
}

// csr is a compressed sparse row adjacency structure: the neighbors of node
// n are targets[offsets[n]:offsets[n+1]], sorted ascending.
type csr struct {
	offsets []uint32
	targets []NodeID
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		labelIDs: make(map[string]LabelID),
		nodeIDs:  make(map[string]NodeID),
	}
}

// Node interns a node name, returning its NodeID. Calling Node on an
// already-interned name returns the existing ID.
func (g *Graph) Node(name string) NodeID {
	if id, ok := g.nodeIDs[name]; ok {
		return id
	}
	id := NodeID(len(g.nodeNames))
	g.nodeNames = append(g.nodeNames, name)
	g.nodeIDs[name] = id
	return id
}

// Label interns a label name, returning its LabelID.
func (g *Graph) Label(name string) LabelID {
	if id, ok := g.labelIDs[name]; ok {
		return id
	}
	id := LabelID(len(g.labelNames))
	g.labelNames = append(g.labelNames, name)
	g.labelIDs[name] = id
	g.edges = append(g.edges, nil)
	return id
}

// LookupLabel returns the LabelID for name, if it exists.
func (g *Graph) LookupLabel(name string) (LabelID, bool) {
	id, ok := g.labelIDs[name]
	return id, ok
}

// LookupNode returns the NodeID for name, if it exists.
func (g *Graph) LookupNode(name string) (NodeID, bool) {
	id, ok := g.nodeIDs[name]
	return id, ok
}

// AddEdge adds the edge src --label--> dst, interning names as needed.
// Duplicate edges are tolerated and removed by Freeze. AddEdge panics if
// the graph is frozen.
func (g *Graph) AddEdge(src, label, dst string) {
	g.AddEdgeID(g.Node(src), g.Label(label), g.Node(dst))
}

// AddEdgeID adds the edge src --label--> dst by identifier. The node and
// label IDs must have been produced by Node/Label (or NodeID values below
// EnsureNodes). AddEdgeID panics if the graph is frozen.
func (g *Graph) AddEdgeID(src NodeID, label LabelID, dst NodeID) {
	if g.frozen {
		panic("graph: AddEdge on frozen graph")
	}
	if int(label) >= len(g.edges) {
		panic(fmt.Sprintf("graph: unknown label id %d", label))
	}
	g.edges[label] = append(g.edges[label], Edge{src, dst})
}

// EnsureNodes guarantees that node IDs 0..n-1 exist, naming any new nodes
// by their decimal ID. It is used by synthetic generators that address
// nodes by index.
func (g *Graph) EnsureNodes(n int) {
	for len(g.nodeNames) < n {
		g.Node(fmt.Sprintf("%d", len(g.nodeNames)))
	}
}

// Freeze deduplicates and sorts all edge relations and builds forward and
// backward CSR adjacency. After Freeze this graph value is immutable —
// AddEdge panics — but the dataset it models is not fixed forever: use
// ExtendFrozen to derive a successor graph containing additional edges
// without touching (or re-reading) this one. Freeze is idempotent.
func (g *Graph) Freeze() {
	if g.frozen {
		return
	}
	g.numEdges = 0
	for l := range g.edges {
		g.edges[l] = sortDedupEdges(g.edges[l])
		g.numEdges += len(g.edges[l])
	}
	n := len(g.nodeNames)
	g.adj = make([]csr, 2*len(g.edges))
	for l, es := range g.edges {
		g.adj[Fwd(LabelID(l))] = buildCSR(es, n, false)
		g.adj[Inv(LabelID(l))] = buildCSR(es, n, true)
	}
	g.frozen = true
}

// sortDedupEdges sorts es by (src,dst) and removes duplicates in place.
func sortDedupEdges(es []Edge) []Edge {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
	out := es[:0]
	for i, e := range es {
		if i == 0 || e != es[i-1] {
			out = append(out, e)
		}
	}
	return out
}

func buildCSR(es []Edge, n int, reverse bool) csr {
	counts := make([]uint32, n+1)
	for _, e := range es {
		s := e.Src
		if reverse {
			s = e.Dst
		}
		counts[s+1]++
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	targets := make([]NodeID, len(es))
	next := make([]uint32, n)
	copy(next, counts[:n])
	for _, e := range es {
		s, t := e.Src, e.Dst
		if reverse {
			s, t = t, s
		}
		targets[next[s]] = t
		next[s]++
	}
	// Each node's targets must be sorted; the forward direction is already
	// sorted by construction, the reverse direction generally is not.
	if reverse {
		for v := 0; v < n; v++ {
			seg := targets[counts[v]:counts[v+1]]
			sort.Slice(seg, func(i, j int) bool { return seg[i] < seg[j] })
		}
	}
	return csr{offsets: counts, targets: targets}
}

// Frozen reports whether Freeze has been called.
func (g *Graph) Frozen() bool { return g.frozen }

// NumNodes returns the number of interned nodes.
func (g *Graph) NumNodes() int { return len(g.nodeNames) }

// NumLabels returns the number of interned labels.
func (g *Graph) NumLabels() int { return len(g.labelNames) }

// NumEdges returns the total number of distinct edges across all labels.
// Valid only after Freeze.
func (g *Graph) NumEdges() int {
	g.mustBeFrozen()
	return g.numEdges
}

// NodeName returns the name of node id.
func (g *Graph) NodeName(id NodeID) string { return g.nodeNames[id] }

// NodeNames returns the node-name table, indexed by node id; it must not
// be modified. Code naming identifiers read from an index file — which
// may have been built from another graph — checks them against its
// length instead of indexing past it.
func (g *Graph) NodeNames() []string { return g.nodeNames }

// LabelName returns the name of label id.
func (g *Graph) LabelName(id LabelID) string { return g.labelNames[id] }

// DirLabelName renders a direction-qualified label, using the paper's
// "label^-" notation for inverses.
func (g *Graph) DirLabelName(d DirLabel) string {
	if d.IsInverse() {
		return g.labelNames[d.Label()] + "^-"
	}
	return g.labelNames[d.Label()]
}

// Labels returns the label names indexed by LabelID. The returned slice
// must not be modified.
func (g *Graph) Labels() []string { return g.labelNames }

// Edges returns the distinct edges of label l, sorted by (src,dst). Valid
// only after Freeze. The returned slice must not be modified.
func (g *Graph) Edges(l LabelID) []Edge {
	g.mustBeFrozen()
	return g.edges[l]
}

// Out returns the neighbors reachable from node n by one step of d,
// sorted ascending. Valid only after Freeze. The returned slice must not
// be modified.
func (g *Graph) Out(n NodeID, d DirLabel) []NodeID {
	g.mustBeFrozen()
	a := &g.adj[d]
	if int(n) >= len(a.offsets)-1 {
		return nil
	}
	return a.targets[a.offsets[n]:a.offsets[n+1]]
}

// Degree returns the number of d-successors of node n.
func (g *Graph) Degree(n NodeID, d DirLabel) int { return len(g.Out(n, d)) }

// DirLabels returns all direction-qualified labels of the graph: for each
// label, first the forward then the inverse direction.
func (g *Graph) DirLabels() []DirLabel {
	ds := make([]DirLabel, 0, 2*len(g.labelNames))
	for l := range g.labelNames {
		ds = append(ds, Fwd(LabelID(l)), Inv(LabelID(l)))
	}
	return ds
}

func (g *Graph) mustBeFrozen() {
	if !g.frozen {
		panic("graph: operation requires a frozen graph (call Freeze)")
	}
}

// LabeledEdge is one edge of an update batch, by name: src --label--> dst.
// Names are interned exactly as by AddEdge, so edges may reference
// existing nodes and labels or introduce new ones.
type LabeledEdge struct {
	Src, Label, Dst string
}

// ExtendFrozen returns a new frozen graph containing every edge of g plus
// the given batch. g itself is not modified and stays valid for
// concurrent readers. Node and label identifiers of g are preserved in
// the successor (new names are interned after the existing ones), so
// identifiers, index paths, and packed pairs obtained against g remain
// meaningful against the result. Duplicate edges (within the batch or
// against g) are deduplicated.
//
// The cost is proportional to the batch plus the edge relations of the
// labels it touches: untouched labels share their (immutable) edge
// slices and CSR adjacency with g, so frequent small batches do not pay
// a full-graph re-freeze. Shared state is never written by either graph.
func (g *Graph) ExtendFrozen(edges []LabeledEdge) (*Graph, error) {
	if !g.frozen {
		return nil, fmt.Errorf("graph: ExtendFrozen requires a frozen graph")
	}
	ng := &Graph{
		labelNames: slices.Clone(g.labelNames),
		labelIDs:   maps.Clone(g.labelIDs),
		nodeNames:  slices.Clone(g.nodeNames),
		nodeIDs:    maps.Clone(g.nodeIDs),
		edges:      make([][]Edge, len(g.edges)),
	}
	// Intern the batch first (possibly growing the node and label
	// tables), collecting new edges per label.
	added := map[LabelID][]Edge{}
	for _, e := range edges {
		l := ng.Label(e.Label) // may append a slot to ng.edges
		added[l] = append(added[l], Edge{ng.Node(e.Src), ng.Node(e.Dst)})
	}
	n := len(ng.nodeNames)
	ng.adj = make([]csr, 2*len(ng.edges))
	for l := range ng.edges {
		lid := LabelID(l)
		if add, touched := added[lid]; touched || l >= len(g.edges) {
			var es []Edge
			if l < len(g.edges) {
				es = append(make([]Edge, 0, len(g.edges[l])+len(add)), g.edges[l]...)
			}
			es = sortDedupEdges(append(es, add...))
			ng.edges[l] = es
			ng.adj[Fwd(lid)] = buildCSR(es, n, false)
			ng.adj[Inv(lid)] = buildCSR(es, n, true)
		} else {
			// Untouched label: alias the predecessor's frozen slices.
			// Its CSR offsets cover only g's node count; Out's bounds
			// check answers nil for newer nodes, which is correct (new
			// nodes have no edges of an untouched label).
			ng.edges[l] = g.edges[l]
			ng.adj[Fwd(lid)] = g.adj[Fwd(lid)]
			ng.adj[Inv(lid)] = g.adj[Inv(lid)]
		}
		ng.numEdges += len(ng.edges[l])
	}
	ng.frozen = true
	return ng, nil
}

// Stats summarizes a frozen graph.
type Stats struct {
	Nodes     int
	Edges     int
	Labels    int
	MaxOutDeg int // max forward out-degree over all labels combined
	MaxInDeg  int
	PerLabel  []int // edge count per label
}

// ComputeStats returns summary statistics for g.
func (g *Graph) ComputeStats() Stats {
	g.mustBeFrozen()
	st := Stats{Nodes: g.NumNodes(), Edges: g.numEdges, Labels: g.NumLabels()}
	st.PerLabel = make([]int, len(g.edges))
	outDeg := make([]int, g.NumNodes())
	inDeg := make([]int, g.NumNodes())
	for l, es := range g.edges {
		st.PerLabel[l] = len(es)
		for _, e := range es {
			outDeg[e.Src]++
			inDeg[e.Dst]++
		}
	}
	for i := range outDeg {
		if outDeg[i] > st.MaxOutDeg {
			st.MaxOutDeg = outDeg[i]
		}
		if inDeg[i] > st.MaxInDeg {
			st.MaxInDeg = inDeg[i]
		}
	}
	return st
}
