// Package plan generates physical execution plans for union-normal-form
// RPQs over a k-path index, implementing the third processing step of
// Fletcher, Peters & Poulovassilis (EDBT 2016), Section 4, and its four
// evaluation strategies: naive, semiNaive, minSupport, and minJoin.
//
// A disjunct (label path) is segmented into contiguous subpaths of length
// at most k; each segment becomes a forward index scan and segments are
// combined with joins on the shared intermediate node. Every unbound
// join is a group join: its left operand streams grouped by source (a
// scan, a closure or another group join), its right operand is drained
// into rows, and each source's targets are deduplicated as they are
// emitted, so the output is a set grouped by source. The plan is the
// same whatever the storage layout: over sharded storage a scan reads
// the shards' runs one after another, which groups it by source too.
//
// The cost model is the paper's: a join of two scans is costed as its
// merge join I(w⁻k⁻k⁻) ⋈ I(kww) of an inverted and a forward scan, any
// other join as a hash join. Only the physical operator differs, so each
// strategy chooses the tree it would choose for merge and hash joins.
//
// A single-source query binds its source into the plan instead (see
// bound.go): the first scan reads only the source's prefix run and every
// later segment is joined by probing the index per intermediate node.
package plan

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/pathindex"
)

// Strategy selects the plan-generation algorithm.
type Strategy int

const (
	// Naive fixes k at 1: every segment is a single edge label, joined
	// left to right. It corresponds to automaton-style evaluation
	// (approach 1 in the paper's introduction).
	Naive Strategy = iota
	// SemiNaive greedily chunks each disjunct left-to-right into
	// segments of length k and joins them left to right.
	SemiNaive
	// MinSupport recursively splits each disjunct at its most selective
	// length-k subpath (per the histogram) and picks the cheapest of the
	// alternative join shapes, as in Section 4 of the paper.
	MinSupport
	// MinJoin first minimizes the number of joins (⌈n/k⌉ segments), then
	// searches all such segmentations and join orders for the cheapest
	// plan.
	MinJoin
)

var strategyNames = map[Strategy]string{
	Naive:      "naive",
	SemiNaive:  "semiNaive",
	MinSupport: "minSupport",
	MinJoin:    "minJoin",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ParseStrategy converts a strategy name to a Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for s, n := range strategyNames {
		if n == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("plan: unknown strategy %q (want naive, semiNaive, minSupport, or minJoin)", name)
}

// Strategies lists all strategies in presentation order.
func Strategies() []Strategy { return []Strategy{Naive, SemiNaive, MinSupport, MinJoin} }

// JoinAlgo is the physical join algorithm.
type JoinAlgo int

const (
	// Hash builds a hash table on one input and probes it with the
	// other; unbound joins use it only under Planner.HashOnly.
	Hash JoinAlgo = iota
	// Probe joins a bound left input to its right scan's segment by one
	// ⟨segment, node⟩ prefix lookup per left pair; only bound plans use it.
	Probe
	// Group streams a left input grouped by source against the right
	// input laid out as rows, deduplicating per source; every other
	// unbound join uses it.
	Group
)

func (a JoinAlgo) String() string {
	return [...]string{Hash: "hash", Probe: "probe", Group: "group"}[a]
}

// Node is a physical plan operator.
type Node interface {
	// Card is the estimated output cardinality.
	Card() float64
	// Cost is the estimated total cost of the subtree.
	Cost() float64
}

// Scan reads one segment's relation from the index in source order. If
// Bound, it reads only the pairs whose source is Src: the paper's
// ⟨path, source⟩ prefix lookup.
type Scan struct {
	Segment pathindex.Path
	// Inverted is never set by the planner, and the executor refuses a
	// scan that sets it; it leaves with the next benchmark change.
	Inverted bool
	Bound    bool
	Src      graph.NodeID
	card     float64
}

func (s *Scan) Card() float64 { return s.card }
func (s *Scan) Cost() float64 { return s.card }

// Scatter is never produced by the planner, and the executor refuses
// it; it leaves with the next benchmark change.
type Scatter struct {
	Child  Node
	Shards int
}

func (s *Scatter) Card() float64 { return s.Child.Card() }
func (s *Scatter) Cost() float64 { return s.Child.Cost() }

// Join composes Left with Right on Left.dst = Right.src, emitting
// (Left.src, Right.dst) pairs.
type Join struct {
	Left, Right Node
	Algo        JoinAlgo
	// BuildRight applies to hash joins: build the hash table on the
	// right (smaller) input and probe with the left.
	BuildRight bool
	card       float64
	cost       float64
}

func (j *Join) Card() float64 { return j.card }
func (j *Join) Cost() float64 { return j.cost }

// Plan is a complete physical plan: a union of per-disjunct subplans,
// plus an optional identity (ε) disjunct.
type Plan struct {
	Strategy   Strategy
	K          int
	Disjuncts  []Node
	HasEpsilon bool
}

// Card returns the estimated output cardinality (the union bound: the sum
// of disjunct cardinalities).
func (p *Plan) Card() float64 {
	total := 0.0
	for _, d := range p.Disjuncts {
		total += d.Card()
	}
	return total
}

// Cost returns the estimated total plan cost.
func (p *Plan) Cost() float64 {
	total := 0.0
	for _, d := range p.Disjuncts {
		total += d.Cost()
	}
	return total
}

// CardEstimator estimates |p(G)| for label paths of length at most k.
// *histogram.Histogram implements it; tests substitute fakes.
type CardEstimator interface {
	EstimateCount(p pathindex.Path) float64
}

var _ CardEstimator = (*histogram.Histogram)(nil)

// Planner generates plans against one index/histogram pair.
type Planner struct {
	// K is the index locality parameter (maximum segment length).
	K int
	// Hist estimates segment cardinalities. Required.
	Hist CardEstimator
	// NumNodes is |nodes(G)|, used as the distinct-value estimate in the
	// join cardinality formula.
	NumNodes int
	// HashOnly makes every unbound join a hash join (ablation Ext-3b).
	HashOnly bool
}

// Cost-model constants: a hash join pays hashBuildFactor per build-side
// row and 1 per probe-side row; a merge join of two scans pays 1 per row
// on both sides. Every operator additionally pays 1 per output row.
const hashBuildFactor = 1.5

// PlanPaths generates a plan for the given disjuncts under the strategy:
// PlanQuery without closures. Disjuncts must be non-empty label paths;
// hasEpsilon adds the identity disjunct.
func (pl *Planner) PlanPaths(disjuncts []pathindex.Path, hasEpsilon bool, strategy Strategy) (*Plan, error) {
	return pl.PlanQuery(disjuncts, nil, hasEpsilon, strategy)
}

// planPath generates the subplan of one label-path disjunct under the
// strategy.
func (pl *Planner) planPath(d pathindex.Path, strategy Strategy) (Node, error) {
	if len(d) == 0 {
		return nil, fmt.Errorf("plan: empty disjunct (represent ε via hasEpsilon)")
	}
	switch strategy {
	case Naive:
		return pl.chain(d, 1), nil
	case SemiNaive:
		return pl.chain(d, pl.K), nil
	case MinSupport:
		return pl.minSupport(d), nil
	case MinJoin:
		return pl.minJoin(d), nil
	default:
		return nil, fmt.Errorf("plan: unknown strategy %v", strategy)
	}
}

// scan builds a Scan node for a segment.
func (pl *Planner) scan(seg pathindex.Path) *Scan {
	return &Scan{Segment: seg, card: pl.Hist.EstimateCount(seg)}
}

// join combines two subplans: a group join, or a hash join under
// HashOnly. A join of two scans is costed as the paper's merge join and
// any other as a hash join on its smaller side, whichever operator runs
// it, so the strategies choose the same trees either way.
func (pl *Planner) join(left, right Node) *Join {
	j := &Join{Left: left, Right: right, Algo: Group}
	if pl.HashOnly {
		j.Algo = Hash
	}
	_, lok := left.(*Scan)
	_, rok := right.(*Scan)
	cl, cr := left.Card(), right.Card()
	j.card = pl.joinCard(cl, cr)
	if lok && rok && !pl.HashOnly {
		j.cost = left.Cost() + right.Cost() + cl + cr + j.card
		return j
	}
	build, probe := cl, cr
	if cr < cl {
		build, probe = cr, cl
		j.BuildRight = pl.HashOnly // a group join has no build side
	}
	j.cost = left.Cost() + right.Cost() + hashBuildFactor*build + probe + j.card
	return j
}

// joinCard estimates |A ⋈ B| with the classic uniformity assumption,
// using the node count as the join-attribute domain size. Outputs are
// pair sets, so the estimate is capped at |V|².
func (pl *Planner) joinCard(cl, cr float64) float64 {
	dv := float64(pl.NumNodes)
	if dv < 1 {
		dv = 1
	}
	card := cl * cr / dv
	if max := dv * dv; card > max {
		card = max
	}
	return card
}

// chain segments d greedily left-to-right into pieces of length at most
// segLen and joins them left to right: the semiNaive shape (and, with
// segLen 1, the naive shape).
func (pl *Planner) chain(d pathindex.Path, segLen int) Node {
	return pl.leftDeep(greedy(d, segLen))
}

// greedy cuts d left to right into pieces of length at most segLen.
func greedy(d pathindex.Path, segLen int) []pathindex.Path {
	var segs []pathindex.Path
	for start := 0; start < len(d); start += segLen {
		segs = append(segs, d[start:min(start+segLen, len(d))])
	}
	return segs
}

// leftDeep joins the scans of segs left to right.
func (pl *Planner) leftDeep(segs []pathindex.Path) Node {
	node := Node(pl.scan(segs[0]))
	for _, seg := range segs[1:] {
		node = pl.join(node, pl.scan(seg))
	}
	return node
}

// minSupport implements the recursive strategy of Section 4: find the
// most selective length-k subpath D′, recur on the flanks, and keep the
// cheaper of the two association orders. (The paper counts "n − k − 1"
// candidate subqueries; a length-n path has n − k + 1 length-k windows,
// which is what we enumerate.)
func (pl *Planner) minSupport(d pathindex.Path) Node {
	if len(d) <= pl.K {
		return pl.scan(d)
	}
	bestStart, bestSel := 0, math.Inf(1)
	for start := 0; start+pl.K <= len(d); start++ {
		sel := pl.Hist.EstimateCount(d[start : start+pl.K])
		if sel < bestSel {
			bestSel = sel
			bestStart = start
		}
	}
	center := d[bestStart : bestStart+pl.K]
	left := d[:bestStart]
	right := d[bestStart+pl.K:]
	switch {
	case len(left) == 0:
		return pl.join(pl.scan(center), pl.minSupport(right))
	case len(right) == 0:
		return pl.join(pl.minSupport(left), pl.scan(center))
	default:
		l := pl.minSupport(left)
		r := pl.minSupport(right)
		// The two association orders; the one not kept is dropped, so
		// they may share the flank trees.
		a := pl.join(pl.join(l, pl.scan(center)), r)
		b := pl.join(l, pl.join(pl.scan(center), r))
		if a.Cost() <= b.Cost() {
			return a
		}
		return b
	}
}

// Search-space guards for minJoin: beyond these, the strategy degrades
// gracefully to the greedy segmentation (which is also join-minimal) and
// a left-to-right join order, keeping planning polynomial on the very
// long disjuncts produced by expanded Kleene stars.
const (
	maxSegmentations = 4096
	maxDPSegments    = 24
)

// minJoin enumerates every segmentation of d into the minimum number of
// segments (⌈n/k⌉, each of length ≤ k) and, for each, the cost-optimal
// join tree over the fixed segment sequence (interval dynamic program),
// returning the cheapest plan overall.
func (pl *Planner) minJoin(d pathindex.Path) Node {
	n := len(d)
	if n <= pl.K {
		return pl.scan(d)
	}
	m := (n + pl.K - 1) / pl.K
	if countCompositions(n, m, pl.K) > maxSegmentations {
		// Too many segmentations: greedy chunking is still join-minimal.
		return pl.chain(d, pl.K)
	}
	var best Node
	var lengths []int
	var rec func(remaining, parts int)
	rec = func(remaining, parts int) {
		if parts == 1 {
			if remaining >= 1 && remaining <= pl.K {
				lengths = append(lengths, remaining)
				node := pl.optimalTree(segmentsOf(d, lengths))
				if best == nil || node.Cost() < best.Cost() {
					best = node
				}
				lengths = lengths[:len(lengths)-1]
			}
			return
		}
		for l := 1; l <= pl.K; l++ {
			rest := remaining - l
			// Feasibility pruning: the remaining parts must be able to
			// cover rest, each within [1, K].
			if rest < parts-1 || rest > (parts-1)*pl.K {
				continue
			}
			lengths = append(lengths, l)
			rec(rest, parts-1)
			lengths = lengths[:len(lengths)-1]
		}
	}
	rec(n, m)
	return best
}

// countCompositions counts the ways to write n as an ordered sum of m
// parts in [1, k], saturating at maxSegmentations+1.
func countCompositions(n, m, k int) int {
	// dp[r] = compositions of r with the parts considered so far.
	dp := make([]int, n+1)
	dp[0] = 1
	for part := 0; part < m; part++ {
		next := make([]int, n+1)
		for r := 0; r <= n; r++ {
			if dp[r] == 0 {
				continue
			}
			for l := 1; l <= k && r+l <= n; l++ {
				next[r+l] += dp[r]
				if next[r+l] > maxSegmentations {
					next[r+l] = maxSegmentations + 1
				}
			}
		}
		dp = next
	}
	return dp[n]
}

func segmentsOf(d pathindex.Path, lengths []int) []pathindex.Path {
	segs := make([]pathindex.Path, len(lengths))
	pos := 0
	for i, l := range lengths {
		segs[i] = d[pos : pos+l]
		pos += l
	}
	return segs
}

// optimalTree computes the cheapest join tree over the fixed segment
// sequence by interval DP (joins may only combine adjacent runs, since
// composition is ordered). Very long sequences fall back to a
// left-to-right chain, keeping the DP cubic cost bounded.
func (pl *Planner) optimalTree(segs []pathindex.Path) Node {
	if len(segs) > maxDPSegments {
		return pl.leftDeep(segs)
	}
	n := len(segs)
	dp := make([][]Node, n)
	for i := range dp {
		dp[i] = make([]Node, n+1)
		dp[i][i+1] = pl.scan(segs[i])
	}
	for width := 2; width <= n; width++ {
		for i := 0; i+width <= n; i++ {
			j := i + width
			var best *Join
			for s := i + 1; s < j; s++ {
				cand := pl.join(dp[i][s], dp[s][j])
				if best == nil || cand.Cost() < best.Cost() {
					best = cand
				}
			}
			dp[i][j] = best
		}
	}
	return dp[0][n]
}

// Format renders the plan as an indented tree using g for label names.
func (p *Plan) Format(g *graph.Graph) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan strategy=%s k=%d est_card=%.1f est_cost=%.1f\n", p.Strategy, p.K, p.Card(), p.Cost())
	if p.HasEpsilon {
		b.WriteString("├─ identity (ε)\n")
	}
	for i, d := range p.Disjuncts {
		last := i == len(p.Disjuncts)-1
		prefix := "├─ "
		childIndent := "│  "
		if last {
			prefix = "└─ "
			childIndent = "   "
		}
		formatNode(&b, d, g, prefix, childIndent)
	}
	return b.String()
}

func formatNode(b *strings.Builder, n Node, g *graph.Graph, prefix, indent string) {
	switch v := n.(type) {
	case *Scan:
		dir := ""
		if v.Bound {
			dir = " from " + g.NodeName(v.Src)
		}
		fmt.Fprintf(b, "%sscan %s%s (est %.1f)\n", prefix, v.Segment.Format(g), dir, v.Card())
	case *Identity:
		fmt.Fprintf(b, "%sidentity (ε) from %s\n", prefix, g.NodeName(v.Src))
	case *Join:
		side := ""
		if v.Algo == Hash {
			side = " build=left"
			if v.BuildRight {
				side = " build=right"
			}
		}
		fmt.Fprintf(b, "%s%s-join%s (est card %.1f, cost %.1f)\n", prefix, v.Algo, side, v.Card(), v.Cost())
		formatNode(b, v.Left, g, indent+"├─ ", indent+"│  ")
		formatNode(b, v.Right, g, indent+"└─ ", indent+"   ")
	case *Closure:
		fmt.Fprintf(b, "%sclosure (est card %.1f, cost %.1f)\n", prefix, v.Card(), v.Cost())
		if v.Input == nil {
			fmt.Fprintf(b, "%s├─ input: identity (ε)\n", indent)
		} else {
			formatNode(b, v.Input, g, indent+"├─ input: ", indent+"│  ")
		}
		for i, c := range v.Body {
			childPrefix, childIndent := indent+"├─ body: ", indent+"│  "
			if i == len(v.Body)-1 {
				childPrefix, childIndent = indent+"└─ body: ", indent+"   "
			}
			formatNode(b, c, g, childPrefix, childIndent)
		}
	default:
		fmt.Fprintf(b, "%s<unknown node %T>\n", prefix, n)
	}
}
