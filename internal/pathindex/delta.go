// This file implements incremental index maintenance (the package
// comment lives in path.go): BuildDelta computes, for every label path
// of length at most k, the sorted run of pairs that a batch of new edges
// adds to the path's relation — an ordinary *Index of those runs — and a
// Levels stack serves base + deltas as one consistent Storage without
// rebuilding the base.
//
// The delta is computed level-wise by the standard delta-join
// decomposition. Writing p' = p ∪ Δp for relations over the successor
// graph G' = G ∪ ΔE:
//
//	Δ(p∘d) = (p∘d)(G') − (p∘d)(G)
//	       = ( Δp ∘ d(G')  ∪  p(G) ∘ Δd ) − (p∘d)(G)
//
// The first term joins the (small) path delta against the successor
// graph's CSR adjacency; the second joins the (small) edge delta against
// the base index via the inverse path's ⟨p⁻, b⟩ prefix lookups — so the
// whole computation is proportional to the delta and its join fan-outs,
// never to the base relation payload. This is the maintenance strategy
// the language-aware path-index line of work (Sasaki, Fletcher &
// Onizuka) identifies as the practical requirement for serving path
// indexes under updates.

package pathindex

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/graph"
)

// subtract removes from the sorted run raw, in place, every pair the
// cursor's run holds: one SrcRun per distinct source of raw, ascending,
// so the cursor only walks forward. It fails when the cursor met a
// corrupt block.
func subtract(raw []Packed, it *BlockIterator) ([]Packed, error) {
	out := raw[:0]
	for i := 0; i < len(raw); {
		src := raw[i].Src()
		j := i + srcEnd(raw[i:], src)
		have := it.SrcRun(src)
		for _, x := range raw[i:j] {
			have = have[gallop(have, x):]
			if len(have) == 0 || have[0] != x {
				out = append(out, x)
			}
		}
		i = j
	}
	return out, it.Err()
}

// prefixRuns holds the sub-runs of one relation for an ascending list of
// sources, copied out of one ascending walk of its cursor.
type prefixRuns struct {
	srcs  []graph.NodeID
	ends  []int // srcs[i]'s sub-run is pairs[ends[i-1]:ends[i]]
	pairs []Packed
}

func readPrefixRuns(it *BlockIterator, srcs []graph.NodeID) (*prefixRuns, error) {
	pr := &prefixRuns{srcs: srcs, ends: make([]int, len(srcs))}
	for i, src := range srcs {
		pr.pairs = append(pr.pairs, it.SrcRun(src)...)
		pr.ends[i] = len(pr.pairs)
	}
	return pr, it.Err()
}

// run returns src's sub-run; src must be one of the listed sources.
func (pr *prefixRuns) run(src graph.NodeID) []Packed {
	i, _ := slices.BinarySearch(pr.srcs, src)
	lo := 0
	if i > 0 {
		lo = pr.ends[i-1]
	}
	return pr.pairs[lo:pr.ends[i]]
}

// BuildDelta computes the index increment that takes base — an index (or
// tier stack) over graph G — to the successor graph g2, which must have been
// produced by G.ExtendFrozen (node and label identifiers of G must be
// preserved). The new edges themselves are recovered by diffing the two
// graphs' edge relations, so callers only hand over the graphs.
//
// The increment is a heap *Index over g2 holding, for each label path p
// of length ≤ k, the sorted run of pairs in p(G') but not in p(G); paths
// the batch adds nothing to are absent. The runs are disjoint from the
// base relations by construction, so merging a base run with its delta
// run needs no deduplication. The index's PathsKCount is the number of
// distinct non-identity pairs its runs relate — the increment's share
// of the stack's |paths_k| (see NewTier) — counted here, once. A corrupt
// base block the lookups read fails the build with its error (see
// BlockIterator.Err) rather than yield a delta computed from a short run.
func BuildDelta(base Storage, g2 *graph.Graph) (*Index, error) {
	g := base.Graph()
	if !g2.Frozen() {
		return nil, fmt.Errorf("pathindex: BuildDelta requires a frozen successor graph")
	}
	if g2.NumNodes() < g.NumNodes() || g2.NumLabels() < g.NumLabels() {
		return nil, fmt.Errorf("pathindex: successor graph is smaller than the base graph (not an extension)")
	}
	for l := 0; l < g.NumLabels(); l++ {
		if g.LabelName(graph.LabelID(l)) != g2.LabelName(graph.LabelID(l)) {
			return nil, fmt.Errorf("pathindex: label %d is %q in base graph, %q in successor", l, g.LabelName(graph.LabelID(l)), g2.LabelName(graph.LabelID(l)))
		}
	}
	start := time.Now()
	k := base.K()
	d := newIndex(g2, k)

	dirs := g2.DirLabels()

	// Level 1: edge deltas per direction-qualified label, by diffing the
	// successor's sorted edge relations against the base graph's.
	// edgeDelta is indexed by DirLabel for the ⟨Δd, b⟩ lookups of the
	// p(G)∘Δd join below.
	edgeDelta := make([][]Packed, len(dirs))
	for _, dl := range dirs {
		if dl.IsInverse() {
			// Derive Δ(ℓ⁻) by swapping Δℓ; membership is preserved under
			// swap, so the diff property carries over.
			fwd := edgeDelta[dl.Flip()]
			if len(fwd) > 0 {
				edgeDelta[dl] = swapRelation(fwd)
			}
			continue
		}
		// The delta is short beside the edge relation it is cut from, so
		// it gets an array of its own.
		ed, err := subtract(packEdges(g2.Edges(dl.Label())), base.Blocks(Path{dl}))
		if err != nil {
			return nil, err
		}
		edgeDelta[dl] = slices.Clone(ed)
	}
	for _, dl := range dirs {
		if len(edgeDelta[dl]) > 0 {
			d.addRun(Path{dl}, edgeDelta[dl])
		}
	}

	// basePathsByLen[n] lists the base paths of length n+1, so each level
	// can iterate base paths whose relations the edge delta may extend.
	basePathsByLen := make([][]Path, k)
	base.AllPaths(func(id uint32, p Path, count int) {
		cp := slices.Clone(p)
		basePathsByLen[len(cp)-1] = append(basePathsByLen[len(cp)-1], cp)
	})

	// Levels 2..k: extend every length-(L-1) path that exists in the base
	// or gained delta pairs by every direction-qualified label.
	// The sources of every edge delta, ascending: the b of the ⟨p⁻, b⟩
	// lookups below.
	var bs []graph.NodeID
	for _, ed := range edgeDelta {
		for _, pr := range ed {
			bs = append(bs, pr.Src())
		}
	}
	slices.Sort(bs)
	bs = slices.Compact(bs)

	prev := levelPaths(d, basePathsByLen[0], 1)
	for level := 2; level <= k; level++ {
		for _, p := range prev {
			dp := d.Relation(p)
			var lookups *prefixRuns // read on first use, for all labels
			for _, dl := range dirs {
				ed := edgeDelta[dl]
				if len(dp) == 0 && len(ed) == 0 {
					continue // Δ(p∘d) = Δp∘d' ∪ p∘Δd = ∅
				}
				q := append(append(Path{}, p...), dl)
				if _, done := d.ids[q.Key()]; done {
					continue
				}
				// Derive from the inverse delta when it is already
				// computed, as the base builder does for full relations.
				if invID, ok := d.ids[q.Inverse().Key()]; ok {
					d.addRun(q, swapRelation(d.relations[invID]))
					d.stats.DerivedPaths++
					continue
				}
				var raw []Packed
				// Δp ∘ d over the successor graph's adjacency.
				for _, pr := range dp {
					a, b := pr.Src(), pr.Dst()
					for _, c := range g2.Out(b, dl) {
						raw = append(raw, Pack(a, c))
					}
				}
				// p(G) ∘ Δd via the base index's ⟨p⁻, b⟩ prefix lookups:
				// for a new edge (b,c), every a with (b,a) ∈ p⁻(G) gives
				// (a,c) ∈ (p∘d)(G'). Base paths always carry their
				// inverses, so the lookup is exact; paths absent from the
				// base (e.g. over a new label) have empty p(G).
				if len(ed) > 0 && lookups == nil {
					var err error
					if lookups, err = readPrefixRuns(base.Blocks(p.Inverse()), bs); err != nil {
						return nil, err
					}
				}
				for _, pr := range ed {
					c := pr.Dst()
					for _, ba := range lookups.run(pr.Src()) {
						raw = append(raw, Pack(ba.Dst(), c))
					}
				}
				if len(raw) == 0 {
					continue
				}
				// Subtract pairs the base already relates: the delta run
				// must be disjoint so merges at scan need no dedup.
				rel, err := subtract(sortDedup(raw), base.Blocks(q))
				if err != nil {
					return nil, err
				}
				// The run lives as long as its tier; when subtraction
				// discarded most of the join output, free the oversized
				// backing array instead of pinning it behind a short run.
				if len(rel)*2 < cap(rel) {
					rel = slices.Clone(rel)
				}
				if len(rel) > 0 {
					d.addRun(q, rel)
				}
			}
		}
		if level < k {
			prev = levelPaths(d, basePathsByLen[level-1], level)
		}
	}
	d.stats.PathsKCount = countDistinctPairs(d.relations, 0)
	d.stats.Duration = time.Since(start)
	return d, nil
}

// packEdges converts a sorted edge slice to its packed run.
func packEdges(es []graph.Edge) []Packed {
	if len(es) == 0 {
		return nil
	}
	rel := make([]Packed, len(es))
	for i, e := range es {
		rel[i] = Pack(e.Src, e.Dst)
	}
	return rel
}

// levelPaths returns the distinct paths of the given length that are
// present in the base (basePaths) or have delta runs: the frontier the
// next composition level extends.
func levelPaths(d *Index, basePaths []Path, length int) []Path {
	out := slices.Clone(basePaths)
	seen := make(map[string]bool, len(out))
	for _, p := range out {
		seen[p.Key()] = true
	}
	for _, p := range d.paths {
		if len(p) == length && !seen[p.Key()] {
			seen[p.Key()] = true
			out = append(out, p)
		}
	}
	return out
}
