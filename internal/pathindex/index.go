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
// as one sorted, deduplicated []Packed run; scans, prefix lookups, and
// membership tests are slice walks and binary searches over those runs.
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

// DefaultBlockSize is the block granularity handed out by Blocks: large
// enough to amortize per-block bookkeeping, small enough that a block of
// packed words stays cache-resident while the executor decodes it.
const DefaultBlockSize = 4096

// BlockIterator yields a sorted relation as consecutive []Packed blocks,
// whatever the storage: it is the one way the executor reads a whole
// run. Over uncompressed storage the blocks are zero-copy sub-slices of
// the index runs; over a *CompressedIndex run each on-disk block is
// varint decoded on demand into a buffer reused across Next calls; over
// a *Levels stack the base's blocks are merged with the path's tier run
// into a buffer reused likewise. A returned block must not be mutated,
// and over compressed or merged runs it is only valid until the next
// Next call — consumers (IndexScan) fully drain a block before
// advancing.
type BlockIterator struct {
	rel  []Packed
	off  int
	size int

	// Compressed source: when cr is non-nil, rel is the decode buffer
	// and blk the next on-disk block to decode into it.
	cr  *compressedRun
	blk int
	buf []Packed

	// Merged source: when base is non-nil, the iterator yields the
	// sorted union of base's blocks and the sorted run tier (disjoint
	// from base), rel is the unconsumed rest of base's current block,
	// and buf is the buffer the two are merged into.
	base *BlockIterator
	tier []Packed
}

// Next returns the next block, or nil at exhaustion. A decode error in a
// compressed run terminates the iteration early (see the CompressedIndex
// trust model) rather than panicking.
func (bi *BlockIterator) Next() []Packed {
	if bi.base != nil {
		return bi.nextMerged()
	}
	for bi.off >= len(bi.rel) {
		if bi.cr == nil || bi.blk >= len(bi.cr.counts) {
			return nil
		}
		if bi.buf == nil {
			bi.buf = make([]Packed, 0, v3BlockPairs)
		}
		dec, err := bi.cr.decode(bi.blk, bi.buf[:0])
		bi.blk++
		if err != nil {
			bi.cr = nil
			return nil
		}
		bi.buf = dec
		bi.rel, bi.off = dec, 0
	}
	end := bi.off + bi.size
	if end > len(bi.rel) {
		end = len(bi.rel)
	}
	b := bi.rel[bi.off:end:end]
	bi.off = end
	return b
}

// nextMerged returns the next block of a merged source: up to size
// pairs (at most DefaultBlockSize) of the two runs' union, merged into
// the iterator's buffer. A base block wholly below the tier's next pair
// is handed out as it came, and once the base is spent the iterator
// serves the rest of the tier run zero-copy.
func (bi *BlockIterator) nextMerged() []Packed {
	if bi.buf == nil {
		bi.buf = make([]Packed, min(bi.size, DefaultBlockSize))
	}
	out := bi.buf
	n := 0
	for n < len(out) {
		if len(bi.rel) == 0 {
			if bi.rel = bi.base.Next(); len(bi.rel) == 0 {
				bi.base, bi.rel, bi.off = nil, bi.tier, 0
				if n == 0 {
					return bi.Next()
				}
				break
			}
		}
		b, t := bi.rel, bi.tier
		if n == 0 && (len(t) == 0 || b[len(b)-1] < t[0]) {
			bi.rel = nil
			return b
		}
		i, j := 0, 0
		for n < len(out) && i < len(b) && j < len(t) {
			if b[i] < t[j] {
				out[n] = b[i]
				i++
			} else {
				out[n] = t[j]
				j++
			}
			n++
		}
		if j == len(t) {
			m := copy(out[n:], b[i:])
			i += m
			n += m
		}
		bi.rel, bi.tier = b[i:], t[j:]
	}
	return out[:n]
}

// Sized sets the block size (minimum 1) and returns the iterator, for
// consumers that want other than DefaultBlockSize blocks. Over a
// compressed or merged run, blocks larger than the decode granularity
// (DefaultBlockSize pairs) are served at that granularity.
func (bi *BlockIterator) Sized(blockSize int) *BlockIterator {
	bi.size = max(blockSize, 1)
	if bi.base != nil {
		bi.base.Sized(bi.size)
	}
	return bi
}

// Blocks returns a BlockIterator over p(G) with DefaultBlockSize blocks.
// Scanning an unindexed path yields an empty iterator. This is the
// paper's I_{G,k}(⟨p⟩) prefix lookup in bulk form.
func (ix *Index) Blocks(p Path) *BlockIterator {
	return &BlockIterator{rel: ix.Relation(p), size: DefaultBlockSize}
}

// SrcRange returns the contiguous sub-run of p(G) whose pairs have
// Src == src, located by binary search: the paper's I_{G,k}(⟨p, a⟩)
// prefix lookup as a zero-copy slice.
func (ix *Index) SrcRange(p Path, src graph.NodeID) []Packed {
	return srcRangeOf(ix.Relation(p), src)
}

// Contains reports whether (src,dst) ∈ p(G): the paper's full-key
// I_{G,k}(⟨p, a, b⟩) lookup, a binary search on the sorted run.
func (ix *Index) Contains(p Path, src, dst graph.NodeID) bool {
	rel := ix.Relation(p)
	_, found := slices.BinarySearch(rel, Pack(src, dst))
	return found
}

// Pin implements Pinner: heap runs have no lifetime to guard.
func (ix *Index) Pin() error { return nil }

// Unpin implements Pinner.
func (ix *Index) Unpin() {}
