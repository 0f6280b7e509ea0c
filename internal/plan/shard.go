// Scatter planning for source-partitioned (sharded) storage. A shard
// holds the sub-run of every label path whose sources it owns. The
// paper's merge join I(w⁻k⁻k⁻) ⋈ I(kww) reads an inverted left run —
// physically the run of the inverse path, so its sources are the join
// node — and a forward right run keyed by the same join node: both inputs
// are partitioned on the join key. Each shard therefore joins its own two
// sub-runs and finds exactly the matches on the join nodes it owns, and
// the union over the shards is the whole join. That co-partitioned merge
// join is the only subtree the planner scatters; every other operator
// runs once over the shards' concatenated runs.

package plan

// Scatter marks a co-partitioned merge join for per-shard evaluation:
// the executor builds Child once per shard over that shard's storage and
// gathers the per-shard streams. Cost and cardinality are the child's —
// scattering redistributes work without changing the result, so strategy
// choice is unaffected by sharding.
type Scatter struct {
	Child Node
	// Shards is the fan-out recorded at plan time (for EXPLAIN; the
	// executor re-derives it from the storage it is given).
	Shards int
}

func (s *Scatter) Card() float64 { return s.Child.Card() }
func (s *Scatter) Cost() float64 { return s.Child.Cost() }

// coPartitioned reports whether j reads two runs partitioned on its join
// node: a merge join of an inverted left scan and a forward right scan.
func coPartitioned(j *Join) bool {
	l, lok := j.Left.(*Scan)
	r, rok := j.Right.(*Scan)
	return j.Algo == Merge && lok && rok && l.Inverted && !r.Inverted
}

// scatter wraps every co-partitioned merge join under n in a Scatter
// when the planner targets sharded storage, wherever the join sits:
// disjunct root, hash-join input, closure input or body. It runs after
// the join tree is chosen, because join() mutates inversion flags.
func (pl *Planner) scatter(n Node) Node {
	switch v := n.(type) {
	case *Join:
		if coPartitioned(v) {
			return &Scatter{Child: v, Shards: pl.Shards}
		}
		v.Left, v.Right = pl.scatter(v.Left), pl.scatter(v.Right)
	case *Closure:
		if v.Input != nil {
			v.Input = pl.scatter(v.Input)
		}
		for i, b := range v.Body {
			v.Body[i] = pl.scatter(b)
		}
	}
	return n
}
