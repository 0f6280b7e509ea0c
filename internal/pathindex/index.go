package pathindex

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
)

// Pair is a (source, target) node pair in some path relation.
type Pair struct {
	Src, Dst graph.NodeID
}

// Packed encodes a pair into a single comparable word whose natural order
// is (src, dst). The index stores every path relation as a sorted
// []Packed run; block and range lookups hand out sub-slices of those runs
// without copying, which is what the batched executor consumes.
type Packed uint64

// Pack encodes (src, dst) into its packed form.
func Pack(src, dst graph.NodeID) Packed { return Packed(src)<<32 | Packed(dst) }

// Src returns the source component.
func (p Packed) Src() graph.NodeID { return graph.NodeID(p >> 32) }

// Dst returns the target component.
func (p Packed) Dst() graph.NodeID { return graph.NodeID(p & 0xffffffff) }

// Swap returns the pair with components exchanged.
func (p Packed) Swap() Packed { return Pack(p.Dst(), p.Src()) }

// Pair returns the decoded form.
func (p Packed) Pair() Pair { return Pair{Src: p.Src(), Dst: p.Dst()} }

// BuildOptions configures index construction.
type BuildOptions struct {
	// MaxEntries aborts the build when the total number of index entries
	// would exceed it. Zero means no limit.
	MaxEntries int
	// NoDerivedInverses disables deriving p⁻ relations by swapping p's
	// pairs, recomputing them by composition instead. The results are
	// identical; the flag exists for the ablation benchmarks.
	NoDerivedInverses bool
	// SkipPathsKCount skips computing |paths_k(G)| (the selectivity
	// denominator), leaving PathsKCount at zero. Useful when only scans
	// are needed.
	SkipPathsKCount bool
}

// BuildStats records index construction metrics (the Ext-1 experiment).
type BuildStats struct {
	Entries       int           // total ⟨path,src,dst⟩ entries
	LabelPaths    int           // number of distinct label paths with non-empty relations
	PathsKCount   int           // |paths_k(G)| including the identity 0-paths
	Duration      time.Duration // wall-clock build time
	DerivedPaths  int           // relations derived from their inverse by swapping
	ComposedPairs int           // raw pairs produced by composition before dedup
}

// Index is the k-path index I_{G,k}. Each label path's relation is kept
// as one sorted, deduplicated []Packed run; scans and prefix lookups are
// walks of a cursor (BlockIterator) that gallops over those runs.
// (The earlier revisions bulk-loaded the runs into a B+tree dictionary;
// the sorted arrays subsume every lookup the engine performs and expose
// zero-copy blocks to the executor.)
type Index struct {
	directory
	relations [][]Packed // path id -> sorted pair run
}

// newIndex returns an empty heap index over g to be filled with addRun.
func newIndex(g *graph.Graph, k int) *Index {
	return &Index{directory: directory{g: g, k: k, ids: map[string]uint32{}}}
}

// addRun appends path p with its sorted run and returns the path id.
func (ix *Index) addRun(p Path, rel []Packed) uint32 {
	ix.relations = append(ix.relations, rel)
	ix.stats.Entries += len(rel)
	ix.stats.LabelPaths++
	return ix.add(p, len(rel))
}

// Build constructs I_{G,k} for the frozen graph g. k must be at least 1.
func Build(g *graph.Graph, k int, opts BuildOptions) (*Index, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("pathindex: graph must be frozen")
	}
	if k < 1 {
		return nil, fmt.Errorf("pathindex: k must be >= 1, got %d", k)
	}
	start := time.Now()
	ix := newIndex(g, k)

	dirs := g.DirLabels()

	// ix.relations[i] is the pair set of path ix.paths[i], sorted by
	// packed order (src, dst); only the previous level is needed for
	// extension, but counts accumulate for all levels.

	// Level 1: base relations straight from the graph's CSR adjacency.
	levelStart := 0
	for _, d := range dirs {
		rel := baseRelation(g, d)
		if len(rel) == 0 {
			continue
		}
		ix.addRun(Path{d}, rel)
	}
	if opts.MaxEntries > 0 && ix.stats.Entries > opts.MaxEntries {
		return nil, fmt.Errorf("pathindex: index would exceed %d entries at k=1", opts.MaxEntries)
	}

	// Levels 2..k: extend every previous-level relation by every
	// direction-qualified label.
	for level := 2; level <= k; level++ {
		levelEnd := len(ix.paths)
		for pid := levelStart; pid < levelEnd; pid++ {
			base := ix.paths[pid]
			baseRel := ix.relations[pid]
			for _, d := range dirs {
				p := append(append(Path{}, base...), d)
				if _, dup := ix.ids[p.Key()]; dup {
					continue
				}
				// Derive from the inverse relation when available.
				if !opts.NoDerivedInverses {
					if invID, ok := ix.ids[p.Inverse().Key()]; ok {
						rel := swapRelation(ix.relations[invID])
						ix.addRun(p, rel)
						ix.stats.DerivedPaths++
						continue
					}
				}
				rel := compose(g, baseRel, d, &ix.stats)
				if len(rel) == 0 {
					continue
				}
				ix.addRun(p, rel)
				if opts.MaxEntries > 0 && ix.stats.Entries > opts.MaxEntries {
					return nil, fmt.Errorf("pathindex: index would exceed %d entries at k=%d", opts.MaxEntries, level)
				}
			}
		}
		levelStart = levelEnd
	}

	if !opts.SkipPathsKCount {
		ix.stats.PathsKCount = countDistinctPairs(ix.relations, g.NumNodes())
	}
	ix.stats.Duration = time.Since(start)
	return ix, nil
}

// baseRelation returns the sorted, deduplicated pair list of a single
// direction-qualified label.
func baseRelation(g *graph.Graph, d graph.DirLabel) []Packed {
	if !d.IsInverse() {
		es := g.Edges(d.Label())
		rel := make([]Packed, len(es))
		for i, e := range es {
			rel[i] = Pack(e.Src, e.Dst)
		}
		return rel // already sorted and deduplicated by Freeze
	}
	var rel []Packed
	for n := 0; n < g.NumNodes(); n++ {
		for _, t := range g.Out(graph.NodeID(n), d) {
			rel = append(rel, Pack(graph.NodeID(n), t))
		}
	}
	return rel // node-major iteration over sorted adjacency keeps order
}

// compose returns the sorted, deduplicated relation of p∘d given the
// relation of p.
func compose(g *graph.Graph, rel []Packed, d graph.DirLabel, stats *BuildStats) []Packed {
	var out []Packed
	for _, pr := range rel {
		a, b := pr.Src(), pr.Dst()
		for _, c := range g.Out(b, d) {
			out = append(out, Pack(a, c))
		}
	}
	stats.ComposedPairs += len(out)
	return sortDedup(out)
}

// swapRelation returns the relation with all pairs swapped, re-sorted.
func swapRelation(rel []Packed) []Packed {
	out := make([]Packed, len(rel))
	for i, pr := range rel {
		out[i] = pr.Swap()
	}
	slices.Sort(out)
	return out
}

func sortDedup(rel []Packed) []Packed {
	if len(rel) == 0 {
		return nil
	}
	slices.Sort(rel)
	out := rel[:1]
	for _, pr := range rel[1:] {
		if pr != out[len(out)-1] {
			out = append(out, pr)
		}
	}
	return out
}

// countDistinctPairs computes |paths_k(G)|: the number of distinct node
// pairs related by any indexed label path, plus the identity pairs (the
// paper's 0-paths, Section 2.1) of numNodes nodes. With numNodes = 0 it
// is the distinct non-identity pairs alone — a tier's share of the count.
func countDistinctPairs(relations [][]Packed, numNodes int) int {
	total := 0
	for _, rel := range relations {
		total += len(rel)
	}
	all := make([]Packed, 0, total)
	for _, rel := range relations {
		all = append(all, rel...)
	}
	n := numNodes
	for _, pr := range sortDedup(all) {
		if pr.Src() != pr.Dst() {
			n++
		}
	}
	return n
}

// Relation returns p(G) as the index's own sorted (src,dst) run. The
// slice is shared with the index and must not be mutated. Unindexed
// paths return nil.
func (ix *Index) Relation(p Path) []Packed {
	id, ok := ix.ids[p.Key()]
	if !ok {
		return nil
	}
	return ix.relations[id]
}

// SrcRange returns the sub-run of p(G) whose pairs have Src == src: the
// paper's I_{G,k}(⟨p, a⟩) prefix lookup as a zero-copy slice.
func (ix *Index) SrcRange(p Path, src graph.NodeID) []Packed {
	return ix.Blocks(p).SrcRun(src)
}

// Pin implements Pinner: heap runs have no lifetime to guard.
func (ix *Index) Pin() error { return nil }

// Unpin implements Pinner.
func (ix *Index) Unpin() {}
