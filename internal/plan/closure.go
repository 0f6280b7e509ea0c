// Kleene-closure planning: the star-factored disjuncts produced by the
// rewriter (internal/rewrite, Normal.Closures) are planned as chains of
// segment subplans interleaved with Closure nodes.

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
}

// Closure evaluates the Kleene closure of Body applied to Input: the
// executor condenses the body relation into strongly connected
// components and walks the component DAG from each source of Input's
// relation (the identity relation when Input is nil). Output is a set
// grouped by ascending source, so a Closure is the left input of a group
// join like any scan.
type Closure struct {
	// Input is the relation being closed; nil means the identity
	// relation over all graph nodes (a pure star disjunct), an Identity
	// the bound identity of a single-source plan.
	Input Node
	// Body is the union of body-sequence subplans.
	Body []Node
	card float64
	cost float64
}

func (c *Closure) Card() float64 { return c.card }
func (c *Closure) Cost() float64 { return c.cost }

// closureGrowth is the closure cost-model heuristic. The true output
// depends on the graph's reachability structure, which the histogram
// cannot see; the model only needs closures to be costed consistently
// relative to their inputs so plan comparison stays sane. A closure is
// assumed to expand its input by closureGrowth body compositions.
const closureGrowth = 4.0

// closure builds a Closure node over input (nil for a pure star) and the
// body subplans. Its cost is its inputs' plus one pass over the body
// (the condensation) plus one per output pair.
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
		Input: input,
		Body:  body,
		card:  card,
		cost:  inCost + bodyCost + bodyCard + card,
	}
}

// PlanQuery generates a plan for a full star-factored query: plain
// label-path disjuncts plus closure-sequence disjuncts, with hasEpsilon
// adding the identity disjunct.
func (pl *Planner) PlanQuery(disjuncts []pathindex.Path, closures []Seq, hasEpsilon bool, strategy Strategy) (*Plan, error) {
	return pl.planQuery(nil, disjuncts, closures, hasEpsilon, strategy)
}

// planQuery is PlanQuery with an optional bound source: when src is
// non-nil every disjunct is planned as a bound chain from it (see
// bound.go) and ε becomes the bound identity.
func (pl *Planner) planQuery(src *graph.NodeID, disjuncts []pathindex.Path, closures []Seq, hasEpsilon bool, strategy Strategy) (*Plan, error) {
	if pl.Hist == nil {
		return nil, fmt.Errorf("plan: planner requires a histogram")
	}
	if pl.K < 1 {
		return nil, fmt.Errorf("plan: k must be >= 1, got %d", pl.K)
	}
	p := &Plan{Strategy: strategy, K: pl.K, HasEpsilon: hasEpsilon && src == nil}
	if hasEpsilon && src != nil {
		p.Disjuncts = append(p.Disjuncts, &Identity{Src: *src})
	}
	// A label path plans as the one-segment sequence.
	seqs := make([]Seq, 0, len(disjuncts)+len(closures))
	for _, d := range disjuncts {
		seqs = append(seqs, Seq{Elems: []SeqElem{{Seg: d}}})
	}
	for _, s := range append(seqs, closures...) {
		var input Node
		if src != nil {
			input = &Identity{Src: *src}
		}
		node, err := pl.planSeq(input, s, strategy)
		if err != nil {
			return nil, err
		}
		p.Disjuncts = append(p.Disjuncts, node)
	}
	return p, nil
}

// planSeq plans one closure-sequence disjunct applied to input (nil for
// none). Unbound, segments are planned by the strategy like plain
// disjuncts; over a bound input they extend the bound chain. Closure
// factors become Closure nodes over the relation planned so far; their
// bodies are always planned unbound.
func (pl *Planner) planSeq(input Node, s Seq, strategy Strategy) (Node, error) {
	if len(s.Elems) == 0 {
		return nil, fmt.Errorf("plan: empty closure sequence (represent ε via hasEpsilon)")
	}
	node, bound := input, input != nil
	for _, e := range s.Elems {
		if !e.IsStar() {
			if bound {
				node = pl.bind(node, e.Seg)
				continue
			}
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
			sub, err := pl.planSeq(nil, b, strategy)
			if err != nil {
				return nil, err
			}
			body[i] = sub
		}
		node = pl.closure(node, body)
	}
	return node, nil
}
