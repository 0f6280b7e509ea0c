// Package pathindex implements the k-path index I_{G,k} of Fletcher,
// Peters & Poulovassilis (EDBT 2016), Section 3.1: an ordered dictionary
// with search key ⟨label path, sourceID, targetID⟩ containing, for every
// label path p of length at most k over the direction-qualified labels of
// G, every node pair (a,b) ∈ p(G).
//
// The index is built by level-wise composition: the relation of p∘d is
// obtained by extending the relation of p with one adjacency step of d,
// deduplicating pairs (path semantics are set-of-pairs, Section 2.2).
// Relations of inverse paths are derived by swapping pair components
// rather than recomputed. The final sorted runs are the storage: where
// the paper's prototype bulk-loads a PostgreSQL B+tree, this index keeps
// each relation as one sorted packed array and serves prefix scans and
// ⟨p, a⟩ range lookups through one seekable cursor per run (see
// BlockIterator) — which also lets the executor borrow whole blocks of
// a relation without copying.
package pathindex

import (
	"strings"

	"repro/internal/graph"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

// Path is a label path over direction-qualified labels: the index's unit
// of lookup.
type Path []graph.DirLabel

// Key returns a compact canonical representation usable as a map key.
// Steps are encoded big-endian so that byte-wise comparison of keys
// orders paths lexicographically by step sequence; the histogram's
// equi-depth buckets exploit this to group paths sharing prefixes.
func (p Path) Key() string {
	var b strings.Builder
	b.Grow(4 * len(p))
	for _, d := range p {
		b.WriteByte(byte(d >> 24))
		b.WriteByte(byte(d >> 16))
		b.WriteByte(byte(d >> 8))
		b.WriteByte(byte(d))
	}
	return b.String()
}

// Inverse returns p⁻: the reversed sequence with every step flipped, so
// that (a,b) ∈ p(G) iff (b,a) ∈ p⁻(G).
func (p Path) Inverse() Path {
	inv := make(Path, len(p))
	for i, d := range p {
		inv[len(p)-1-i] = d.Flip()
	}
	return inv
}

// Equal reports whether p and q are identical step sequences.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Format renders the path with label names from g, e.g.
// "knows/worksFor^-".
func (p Path) Format(g *graph.Graph) string {
	parts := make([]string, len(p))
	for i, d := range p {
		parts[i] = g.DirLabelName(d)
	}
	return strings.Join(parts, "/")
}

// Resolve converts a rewriter label path (with textual labels) into an
// index path over g's label identifiers. It reports ok=false if any label
// does not occur in g, in which case the path's relation is empty by
// definition.
func Resolve(g *graph.Graph, p rewrite.Path) (Path, bool) {
	out := make(Path, len(p))
	for i, s := range p {
		l, ok := g.LookupLabel(s.Label)
		if !ok {
			return nil, false
		}
		if s.Inverse {
			out[i] = graph.Inv(l)
		} else {
			out[i] = graph.Fwd(l)
		}
	}
	return out, true
}

// Steps converts an index path back into rewriter steps using g's label
// names.
func (p Path) Steps(g *graph.Graph) rewrite.Path {
	out := make(rewrite.Path, len(p))
	for i, d := range p {
		out[i] = rpq.Step{Label: g.LabelName(d.Label()), Inverse: d.IsInverse()}
	}
	return out
}
