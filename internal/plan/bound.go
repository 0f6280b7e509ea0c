// Bound-source planning: the single-source answer {t | (src, t) ∈ R(G)}
// planned with src as an input. Each disjunct is a left-to-right chain
// from the bound identity {(src, src)}: fixed segments are cut greedily
// into length-k pieces, the first read by the paper's prefix lookup
// I_{G,k}(⟨p, src⟩) (Example 3.1) and every later one probed per reached
// node; a closure closes the chain so far. Closure bodies are unbound and
// planned as PlanQuery plans them.

package plan

import (
	"repro/internal/graph"
	"repro/internal/pathindex"
)

// Identity is the bound identity {(Src, Src)}: the ε disjunct of a bound
// plan and the input of a closure that leads one of its disjuncts.
type Identity struct {
	Src graph.NodeID
}

func (*Identity) Card() float64 { return 1 }
func (*Identity) Cost() float64 { return 1 }

// PlanQueryFrom plans the single-source restriction of a star-factored
// query to src. Closure bodies are planned under the semiNaive strategy,
// whose segmentation the bound chains share.
func (pl *Planner) PlanQueryFrom(src graph.NodeID, disjuncts []pathindex.Path, closures []Seq, hasEpsilon bool) (*Plan, error) {
	return pl.planQuery(&src, disjuncts, closures, hasEpsilon, SemiNaive)
}

// bind extends the bound relation node by the label path d, one
// length-≤k segment at a time: over the bound identity a segment is a
// bound scan, over anything else a probe join. Estimates assume the
// bound source is an average node.
func (pl *Planner) bind(node Node, d pathindex.Path) Node {
	dv := max(float64(pl.NumNodes), 1)
	for _, seg := range greedy(d, pl.K) {
		right := pl.scan(seg)
		if id, ok := node.(*Identity); ok {
			node = &Scan{Segment: seg, Bound: true, Src: id.Src, card: right.card / dv}
			continue
		}
		j := &Join{Left: node, Right: right, Algo: Probe, card: pl.joinCard(node.Card(), right.card)}
		j.cost = node.Cost() + node.Card() + j.card
		node = j
	}
	return node
}
