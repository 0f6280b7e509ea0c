// Package rewrite implements the first two steps of RPQ processing from
// Fletcher, Peters & Poulovassilis (EDBT 2016), Section 4 — bounded
// recursion is expanded into unions of compositions and all unions are
// pulled up to the top level — extended with a star-factored normal
// form: unbounded repetitions (R*, R+, R{i,}) are NOT expanded into
// n(G)-bounded unions but kept as first-class Kleene-closure factors, so
// a query normalizes to a union of plain label paths plus closure
// sequences (and possibly the identity ε). The executor evaluates each
// closure factor over the SCC condensation of its body, which is how
// related systems (Arroyuelo & Navarro; Abo Khamis et al.) treat
// closures, instead of the exponential disjunct expansion of the
// paper's prototype.
//
// Expansion of the bounded fragment is exponential in the worst case, so
// Normalize enforces configurable limits on the number of disjuncts, on
// path length and on total size, and fails cleanly when a query exceeds
// them.
package rewrite

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/rpq"
)

// Path is a label path: a non-empty sequence of forward or inverse label
// steps. The empty Path represents ε inside this package's computations
// but is never returned as a disjunct (see Normal.HasEpsilon).
type Path []rpq.Step

// String renders the path in parser syntax, e.g. "knows/worksFor^-".
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, s := range p {
		parts[i] = s.String()
	}
	return strings.Join(parts, "/")
}

// Key returns a canonical map key for the path.
func (p Path) Key() string { return p.String() }

// Inverse returns the inverse path p⁻: the reversed sequence with each
// step's direction flipped, so that (a,b) ∈ p(G) iff (b,a) ∈ p⁻(G). For
// example (ℓ1∘ℓ2)⁻ = ℓ2⁻∘ℓ1⁻.
func (p Path) Inverse() Path {
	inv := make(Path, len(p))
	for i, s := range p {
		inv[len(p)-1-i] = rpq.Step{Label: s.Label, Inverse: !s.Inverse}
	}
	return inv
}

// Equal reports whether p and q are the same step sequence.
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

// Concat returns the concatenation p ∘ q as a fresh path.
func (p Path) Concat(q Path) Path {
	out := make(Path, 0, len(p)+len(q))
	out = append(out, p...)
	out = append(out, q...)
	return out
}

// Elem is one element of a star-factored sequence: either a fixed label
// path segment (Star == nil, Seg non-empty) or a Kleene closure over a
// union of body sequences (Star != nil, Seg empty). The closure includes
// zero iterations, i.e. its relation contains the identity.
type Elem struct {
	Seg  Path
	Star []Seq
}

// IsStar reports whether the element is a Kleene-closure factor.
func (e Elem) IsStar() bool { return e.Star != nil }

// String renders the element in parser syntax: a segment as the plain
// path, a closure as "(b1|…|bm)*".
func (e Elem) String() string {
	if !e.IsStar() {
		return e.Seg.String()
	}
	parts := make([]string, len(e.Star))
	for i, s := range e.Star {
		parts[i] = s.String()
	}
	return "(" + strings.Join(parts, "|") + ")*"
}

// Seq is one disjunct of the star-factored normal form: a concatenation
// of fixed segments and Kleene-closure factors. Adjacent segments are
// merged, so a sequence without closures has at most one element; the
// empty sequence represents ε (and, like the empty Path, never escapes
// Normalize — it becomes Normal.HasEpsilon).
type Seq struct {
	Elems []Elem
}

// String renders the sequence in parser syntax, e.g. "a/(b|c)*/d". The
// output reparses to an expression whose normal form contains exactly
// this sequence.
func (s Seq) String() string {
	parts := make([]string, len(s.Elems))
	for i, e := range s.Elems {
		parts[i] = e.String()
	}
	return strings.Join(parts, "/")
}

// Key returns a canonical map key for the sequence.
func (s Seq) Key() string { return s.String() }

// FixedSteps returns the number of steps in fixed segments (closure
// bodies are not counted): the sequence's contribution to the expanded
// query size subject to Options.MaxPathLength.
func (s Seq) FixedSteps() int {
	total := 0
	for _, e := range s.Elems {
		total += len(e.Seg)
	}
	return total
}

// TotalSteps returns the summed steps over segments and closure bodies
// (each body sequence counted once, recursively).
func (s Seq) TotalSteps() int {
	total := 0
	for _, e := range s.Elems {
		total += len(e.Seg)
		for _, b := range e.Star {
			total += b.TotalSteps()
		}
	}
	return total
}

// HasStar reports whether the sequence contains a closure factor.
func (s Seq) HasStar() bool {
	for _, e := range s.Elems {
		if e.IsStar() {
			return true
		}
	}
	return false
}

// pathSeq wraps a plain path as a single-segment sequence.
func pathSeq(p Path) Seq {
	if len(p) == 0 {
		return Seq{}
	}
	return Seq{Elems: []Elem{{Seg: p}}}
}

// concat returns the concatenation of two sequences, merging a segment
// boundary and collapsing adjacent identical closures (B* ∘ B* = B*).
func (s Seq) concat(t Seq) Seq {
	if len(s.Elems) == 0 {
		return t
	}
	if len(t.Elems) == 0 {
		return s
	}
	out := Seq{Elems: make([]Elem, 0, len(s.Elems)+len(t.Elems))}
	out.Elems = append(out.Elems, s.Elems...)
	for _, e := range t.Elems {
		last := &out.Elems[len(out.Elems)-1]
		switch {
		case !e.IsStar() && !last.IsStar():
			last.Seg = last.Seg.Concat(e.Seg)
		case e.IsStar() && last.IsStar() && last.String() == e.String():
			// idempotent: B*∘B* = B*
		default:
			out.Elems = append(out.Elems, e)
		}
	}
	return out
}

// Normal is a query in star-factored union normal form: a union of plain
// label-path disjuncts, closure-sequence disjuncts, and an optional ε
// disjunct. Disjuncts are deduplicated and sorted (paths by
// (length, text), sequences by (fixed steps, text)) for determinism.
type Normal struct {
	Paths []Path
	// Closures are the disjuncts containing at least one Kleene-closure
	// factor. A query without unbounded repetition has none.
	Closures   []Seq
	HasEpsilon bool
}

// TotalSteps returns the summed length of all disjuncts (closure bodies
// counted once), a measure of the expanded query size.
func (n Normal) TotalSteps() int {
	total := 0
	for _, p := range n.Paths {
		total += len(p)
	}
	for _, s := range n.Closures {
		total += s.TotalSteps()
	}
	return total
}

// String renders the normal form canonically: semantically equal
// queries — queries whose star-factored normal forms contain the same
// disjunct set and the same ε flag — render identically, regardless of
// how the original expressions were written. Normalize already
// deduplicates disjuncts and sorts them, so "a/b|c" and "c|a/b" share a
// rendering, as do "a*" and "(a)*". The text is itself parseable query
// syntax whose normal form is the same normal form it was derived from.
func (n Normal) String() string {
	parts := make([]string, 0, len(n.Paths)+len(n.Closures)+1)
	if n.HasEpsilon {
		parts = append(parts, "()")
	}
	for _, p := range n.Paths {
		parts = append(parts, p.String())
	}
	for _, s := range n.Closures {
		parts = append(parts, s.String())
	}
	return strings.Join(parts, " | ")
}

// Options bounds the expansion.
type Options struct {
	// MaxDisjuncts caps the number of disjuncts produced (after
	// deduplication of intermediate results). Zero means the
	// DefaultMaxDisjuncts limit.
	MaxDisjuncts int
	// MaxPathLength caps the number of fixed steps of any produced
	// disjunct (closure bodies are capped at their own level). Zero
	// means the DefaultMaxPathLength limit.
	MaxPathLength int
	// MaxTotalSteps caps the total expanded size of the normal form:
	// the summed steps over every produced disjunct (closure bodies
	// included). The per-disjunct and disjunct-count limits alone do
	// not compose into a memory bound — a bounded repetition such as
	// (a|b){1,15} sits just under MaxDisjuncts with long disjuncts,
	// "succeeding" into an expansion whose downstream operator tree is
	// gigabytes — so the total is capped on its own.
	// Zero means the DefaultMaxTotalSteps limit.
	MaxTotalSteps int
}

// Default expansion limits. They are generous for the workloads of the
// paper (whose expansions are tiny) while stopping adversarial queries
// like (a|b){20,20} from exhausting memory.
const (
	DefaultMaxDisjuncts  = 65536
	DefaultMaxPathLength = 512
	DefaultMaxTotalSteps = 1 << 18
)

// A LimitError reports that expansion exceeded Options limits.
type LimitError struct {
	What  string // "disjunct" or "path length"
	Limit int
	// Frag is the offending subexpression (query syntax): the innermost
	// expression whose expansion overflowed the limit.
	Frag string
	// Option names the Options field to raise to admit the query.
	Option string
}

func (e *LimitError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rewrite: expansion exceeds %s limit %d", e.What, e.Limit)
	if e.Frag != "" {
		fmt.Fprintf(&b, " while expanding %q", e.Frag)
	}
	if e.Option != "" {
		fmt.Fprintf(&b, " (raise Options.%s or simplify the subexpression)", e.Option)
	}
	return b.String()
}

// annotate records e as the offending fragment of a LimitError that does
// not yet carry one, so the error names the innermost subexpression that
// overflowed rather than the whole query.
func annotate(err error, e rpq.Expr) error {
	var le *LimitError
	if errors.As(err, &le) && le.Frag == "" {
		le.Frag = e.String()
	}
	return err
}

// seqSet is a deduplicated ordered set of sequences; the empty sequence
// represents ε. steps tracks the summed TotalSteps of the members — the
// expanded size subject to Options.MaxTotalSteps.
type seqSet struct {
	seqs  []Seq
	seen  map[string]bool
	steps int
}

func newSeqSet() *seqSet { return &seqSet{seen: map[string]bool{}} }

func (s *seqSet) add(q Seq) {
	k := q.Key()
	if !s.seen[k] {
		s.seen[k] = true
		s.seqs = append(s.seqs, q)
		s.steps += q.TotalSteps()
	}
}

// limitCheck reports whether s exceeds the expansion limits, returning
// the error to surface (disjunct count first, then total size). It is
// consulted at every accumulation point, so the error fires as soon as
// a set crosses a limit — well before the expansion (or the operator
// tree built from it) grows to a problematic allocation.
func limitCheck(s *seqSet, opts Options) error {
	if len(s.seqs) > opts.MaxDisjuncts {
		return &LimitError{What: "disjunct", Limit: opts.MaxDisjuncts, Option: "MaxDisjuncts"}
	}
	if s.steps > opts.MaxTotalSteps {
		return &LimitError{What: "total step", Limit: opts.MaxTotalSteps, Option: "MaxTotalSteps"}
	}
	return nil
}

// Normalize rewrites e into star-factored union normal form.
func Normalize(e rpq.Expr, opts Options) (Normal, error) {
	if err := rpq.Validate(e); err != nil {
		return Normal{}, err
	}
	if opts.MaxDisjuncts == 0 {
		opts.MaxDisjuncts = DefaultMaxDisjuncts
	}
	if opts.MaxPathLength == 0 {
		opts.MaxPathLength = DefaultMaxPathLength
	}
	if opts.MaxTotalSteps == 0 {
		opts.MaxTotalSteps = DefaultMaxTotalSteps
	}
	set, err := expand(e, opts)
	if err != nil {
		return Normal{}, err
	}
	var n Normal
	for _, s := range set.seqs {
		switch {
		case len(s.Elems) == 0:
			n.HasEpsilon = true
		case len(s.Elems) == 1 && !s.Elems[0].IsStar():
			n.Paths = append(n.Paths, s.Elems[0].Seg)
		default:
			n.Closures = append(n.Closures, s)
		}
	}
	sort.Slice(n.Paths, func(i, j int) bool {
		if len(n.Paths[i]) != len(n.Paths[j]) {
			return len(n.Paths[i]) < len(n.Paths[j])
		}
		return n.Paths[i].Key() < n.Paths[j].Key()
	})
	sort.Slice(n.Closures, func(i, j int) bool {
		si, sj := n.Closures[i], n.Closures[j]
		if si.FixedSteps() != sj.FixedSteps() {
			return si.FixedSteps() < sj.FixedSteps()
		}
		return si.Key() < sj.Key()
	})
	return n, nil
}

func expand(e rpq.Expr, opts Options) (*seqSet, error) {
	switch v := e.(type) {
	case rpq.Epsilon:
		s := newSeqSet()
		s.add(Seq{})
		return s, nil
	case rpq.Step:
		s := newSeqSet()
		s.add(pathSeq(Path{v}))
		return s, nil
	case rpq.Union:
		out := newSeqSet()
		for _, a := range v.Alts {
			sub, err := expand(a, opts)
			if err != nil {
				return nil, err
			}
			for _, q := range sub.seqs {
				out.add(q)
			}
			if err := limitCheck(out, opts); err != nil {
				return nil, annotate(err, e)
			}
		}
		return out, nil
	case rpq.Concat:
		acc := newSeqSet()
		acc.add(Seq{})
		for _, part := range v.Parts {
			sub, err := expand(part, opts)
			if err != nil {
				return nil, err
			}
			acc, err = cross(acc, sub, opts)
			if err != nil {
				return nil, annotate(err, e)
			}
		}
		return acc, nil
	case rpq.Repeat:
		if v.Max == rpq.Unbounded {
			return expandClosure(v, opts)
		}
		sub, err := expand(v.Sub, opts)
		if err != nil {
			return nil, err
		}
		// power accumulates sub^i; out accumulates the union over
		// i ∈ [Min, Max].
		power := newSeqSet()
		power.add(Seq{})
		out := newSeqSet()
		if v.Min == 0 {
			out.add(Seq{})
		}
		for i := 1; i <= v.Max; i++ {
			power, err = cross(power, sub, opts)
			if err != nil {
				return nil, annotate(err, e)
			}
			if i >= v.Min {
				for _, q := range power.seqs {
					out.add(q)
				}
				if err := limitCheck(out, opts); err != nil {
					return nil, annotate(err, e)
				}
			}
			// If sub can only produce ε, further powers add nothing.
			if len(power.seqs) == 1 && len(power.seqs[0].Elems) == 0 && i >= v.Min {
				break
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("rewrite: unknown expression type %T", e)
	}
}

// expandClosure rewrites an unbounded repetition R{m,} into the factored
// form R^m ∘ (body)*, where body is R's own expansion flattened by the
// closure identities (B ∪ ε)* = B* and (P ∪ C*)* = (P ∪ C)*. The body
// may itself contain closure factors (nested stars that do not flatten,
// e.g. (a/b*)*), which the evaluator handles by nested closures.
func expandClosure(v rpq.Repeat, opts Options) (*seqSet, error) {
	sub, err := expand(v.Sub, opts)
	if err != nil {
		return nil, err
	}
	body := newSeqSet()
	for _, q := range sub.seqs {
		switch {
		case len(q.Elems) == 0:
			// ε iterations contribute nothing: (R|())* = R*.
		case len(q.Elems) == 1 && q.Elems[0].IsStar():
			// (P|C*)* = (P|C)*: splice the nested closure's body.
			for _, b := range q.Elems[0].Star {
				body.add(b)
			}
		default:
			body.add(q)
		}
		if err := limitCheck(body, opts); err != nil {
			return nil, annotate(err, v)
		}
	}
	out := newSeqSet()
	if len(body.seqs) == 0 {
		// Star over an ε-only body is the identity.
		out.add(Seq{})
		return out, nil
	}
	// Body order is part of the canonical form: sort like disjuncts.
	sort.Slice(body.seqs, func(i, j int) bool {
		bi, bj := body.seqs[i], body.seqs[j]
		if bi.FixedSteps() != bj.FixedSteps() {
			return bi.FixedSteps() < bj.FixedSteps()
		}
		return bi.Key() < bj.Key()
	})
	star := newSeqSet()
	star.add(Seq{Elems: []Elem{{Star: body.seqs}}})
	if v.Min == 0 {
		return star, nil
	}
	// R{m,} = R^m ∘ R*: expand the mandatory prefix like a bounded
	// repetition and append the closure factor.
	prefix := newSeqSet()
	prefix.add(Seq{})
	for i := 0; i < v.Min; i++ {
		prefix, err = cross(prefix, sub, opts)
		if err != nil {
			return nil, annotate(err, v)
		}
	}
	out, err = cross(prefix, star, opts)
	if err != nil {
		return nil, annotate(err, v)
	}
	return out, nil
}

// cross returns the pairwise concatenation of a and b under opts limits.
func cross(a, b *seqSet, opts Options) (*seqSet, error) {
	out := newSeqSet()
	for _, qa := range a.seqs {
		for _, qb := range b.seqs {
			q := qa.concat(qb)
			if q.FixedSteps() > opts.MaxPathLength {
				return nil, &LimitError{What: "path length", Limit: opts.MaxPathLength, Option: "MaxPathLength"}
			}
			out.add(q)
			if err := limitCheck(out, opts); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
