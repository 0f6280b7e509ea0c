// Kleene-closure planning: the star-factored disjuncts produced by the
// rewriter (internal/rewrite, Normal.Closures) are planned as chains of
// segment subplans interleaved with Closure operators, and the
// restricted shape (ℓ1|…|ℓm)* — the one a reachability index answers in
// O(1) per pair (approach 3 of the paper's introduction) — is routed to
// a Reach node instead of a general fixpoint.

package plan

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/pathindex"
)

// SeqElem is one element of a resolved star-factored disjunct: either a
// fixed label-path segment (Star == nil) or a Kleene closure over a
// union of body sequences (Star != nil). It mirrors rewrite.Elem with
// labels resolved against the graph vocabulary.
type SeqElem struct {
	Seg  pathindex.Path
	Star []Seq
}

// IsStar reports whether the element is a closure factor.
func (e SeqElem) IsStar() bool { return e.Star != nil }

// Seq is a resolved star-factored disjunct: a concatenation of fixed
// segments and closure factors.
type Seq struct {
	Elems []SeqElem
	// Pure marks a disjunct the rewriter identified as a bare Kleene
	// star (closure of the identity relation, no fixed segments) — a
	// mode hint: its closure is always worth streaming, since the output
	// covers every source's full reach set.
	Pure bool
}

// Closure evaluates the Kleene closure of Body applied to Input:
// starting from Input's relation (or the identity relation when Input is
// nil), either by semi-naive fixpoint iteration (a delta frontier is
// repeatedly composed with the body relation, deduplicated against the
// accumulated result, until no new pairs appear) or — when Streamed —
// output-sensitively by per-source BFS over the body adjacency, which
// never materializes the accumulated relation. Output carries no useful
// order either way, so joins above a Closure are hash joins.
type Closure struct {
	// Input is the relation being closed; nil means the identity
	// relation over all graph nodes (a pure star disjunct).
	Input Node
	// Body is the union of body-sequence subplans; one fixpoint step
	// composes the delta with this union's relation.
	Body []Node
	// Streamed selects the output-sensitive per-source BFS evaluation
	// mode over the pair-materializing fixpoint.
	Streamed bool
	card     float64
	cost     float64
}

func (c *Closure) Card() float64 { return c.card }
func (c *Closure) Cost() float64 { return c.cost }

// Reach answers a restricted closure (ℓ1|…|ℓm)* from a reachability
// index over the subgraph induced by Labels (SCC condensation +
// descendant bitsets). The executor obtains the index from the engine,
// which builds it lazily per label set and caches it.
type Reach struct {
	Labels []graph.DirLabel
	card   float64
}

func (r *Reach) Card() float64 { return r.card }
func (r *Reach) Cost() float64 { return r.card }

// Closure cost-model heuristics. The fixpoint's true cost depends on the
// graph's reachability structure, which the histogram cannot see; the
// model only needs closures to be costed consistently relative to their
// inputs so plan comparison stays sane. A closure is assumed to expand
// its input by closureGrowth fixpoint compositions on average, and every
// iteration pays closureIterFactor per accumulated row for the
// dedup-and-frontier bookkeeping.
const (
	closureGrowth     = 4.0
	closureIterFactor = 2.0
	// streamFactor is the output-sensitivity threshold: a closure whose
	// estimated output is at least streamFactor times its touched-edge
	// estimate (input + body cardinalities) is evaluated streamed, since
	// materializing the result set would dominate the work.
	streamFactor = 2.0
)

// closure builds a Closure node over input (nil for a pure star) and the
// body subplans, choosing the evaluation mode: when the planner has
// streaming enabled and the histogram-estimated closure output dwarfs
// the touched-edge count (or the closure is a pure star, whose output is
// every source's reach set), the node is marked Streamed.
func (pl *Planner) closure(input Node, body []Node) *Closure {
	dv := float64(pl.NumNodes)
	if dv < 1 {
		dv = 1
	}
	inCard := dv // identity relation
	inCost := 0.0
	if input != nil {
		inCard = input.Card()
		inCost = input.Cost()
	}
	bodyCard, bodyCost := 0.0, 0.0
	for _, b := range body {
		bodyCard += b.Card()
		bodyCost += b.Cost()
	}
	card := inCard + closureGrowth*pl.joinCard(inCard, bodyCard)
	if max := dv * dv; card > max {
		card = max
	}
	return &Closure{
		Input:    input,
		Body:     body,
		Streamed: pl.StreamClosures && (input == nil || card >= streamFactor*(inCard+bodyCard)),
		card:     card,
		cost:     inCost + bodyCost + bodyCard + closureIterFactor*card,
	}
}

// reach builds a Reach node for the restricted closure over labels. Its
// cardinality is the same closure estimate with the identity input and
// the per-label scans as body.
func (pl *Planner) reach(labels []graph.DirLabel) *Reach {
	dv := float64(pl.NumNodes)
	if dv < 1 {
		dv = 1
	}
	bodyCard := 0.0
	for _, l := range labels {
		bodyCard += pl.Hist.EstimateCount(pathindex.Path{l})
	}
	card := dv + closureGrowth*pl.joinCard(dv, bodyCard)
	if max := dv * dv; card > max {
		card = max
	}
	return &Reach{Labels: labels, card: card}
}

// PlanQuery generates a plan for a full star-factored query: plain
// label-path disjuncts plus closure-sequence disjuncts, with hasEpsilon
// adding the identity disjunct. Over sharded storage (Shards > 1) the
// finished join trees get their scatters last.
func (pl *Planner) PlanQuery(disjuncts []pathindex.Path, closures []Seq, hasEpsilon bool, strategy Strategy) (*Plan, error) {
	if pl.Hist == nil {
		return nil, fmt.Errorf("plan: planner requires a histogram")
	}
	if pl.K < 1 {
		return nil, fmt.Errorf("plan: k must be >= 1, got %d", pl.K)
	}
	p := &Plan{Strategy: strategy, K: pl.K, HasEpsilon: hasEpsilon}
	for _, d := range disjuncts {
		node, err := pl.planPath(d, strategy)
		if err != nil {
			return nil, err
		}
		p.Disjuncts = append(p.Disjuncts, node)
	}
	for _, s := range closures {
		node, err := pl.planSeq(s, strategy)
		if err != nil {
			return nil, err
		}
		p.Disjuncts = append(p.Disjuncts, node)
	}
	if pl.Shards > 1 {
		for i, d := range p.Disjuncts {
			p.Disjuncts[i] = pl.scatter(d)
		}
	}
	return p, nil
}

// restrictedLabels reports whether s is the restricted reachability
// shape — a single closure factor whose body sequences are all
// single-step segments — returning the label set.
func restrictedLabels(s Seq) ([]graph.DirLabel, bool) {
	if len(s.Elems) != 1 || !s.Elems[0].IsStar() {
		return nil, false
	}
	var labels []graph.DirLabel
	for _, b := range s.Elems[0].Star {
		if len(b.Elems) != 1 || b.Elems[0].IsStar() || len(b.Elems[0].Seg) != 1 {
			return nil, false
		}
		labels = append(labels, b.Elems[0].Seg[0])
	}
	return labels, true
}

// planSeq plans one closure-sequence disjunct: segments are planned by
// the strategy like plain disjuncts, closure factors become Closure
// nodes over the relation planned so far (joins above closures are hash
// joins, chosen by join() since a Closure is not a Scan).
func (pl *Planner) planSeq(s Seq, strategy Strategy) (Node, error) {
	if len(s.Elems) == 0 {
		return nil, fmt.Errorf("plan: empty closure sequence (represent ε via hasEpsilon)")
	}
	if labels, ok := restrictedLabels(s); ok && !pl.NoReachIndex {
		return pl.reach(labels), nil
	}
	var node Node
	for _, e := range s.Elems {
		if !e.IsStar() {
			seg, err := pl.planPath(e.Seg, strategy)
			if err != nil {
				return nil, err
			}
			if node == nil {
				node = seg
			} else {
				node = pl.join(node, seg)
			}
			continue
		}
		body := make([]Node, len(e.Star))
		for i, b := range e.Star {
			sub, err := pl.planSeq(b, strategy)
			if err != nil {
				return nil, err
			}
			body[i] = sub
		}
		cl := pl.closure(node, body)
		if s.Pure && pl.StreamClosures {
			// The rewriter's pure-star hint overrides the cardinality
			// test: a bare star enumerates every source's reach set, the
			// exact shape per-source BFS is built for.
			cl.Streamed = true
		}
		node = cl
	}
	return node, nil
}
