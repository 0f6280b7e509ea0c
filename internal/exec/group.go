package exec

import "repro/internal/graph"

// GroupJoin composes left with right on left.dst = right.src when left
// arrives grouped by source (see sourceGrouped) — a scan, the shards'
// concatenated scans, a bound scan, the identity scan, a closure or
// another group join. On the first NextBatch it drains right into rows
// keyed by source (an adjacency). Then, for each left pair (s, m), it
// emits (s, t) for every t in m's row, keeping t only the first time s's
// group reaches it: a dense array of targets, stamped per source group
// as StreamClosure stamps its components, so the output is a set,
// grouped by source in left's order, and dedup costs one array read per
// witness instead of a hash-set insert.
//
// Memory is O(|right| + nodes), never proportional to the output.
type GroupJoin struct {
	opBase
	left      input
	right     Operator
	batchSize int

	built bool
	rows  adjacency    // right's pairs, row m holding the targets of join node m
	seen  []uint32     // target -> stamp of the source group that last emitted it
	stamp uint32       // the current source group's stamp; 0 before the first
	src   graph.NodeID // source of the current group
	ri    int          // rows.to[ri:rend] is the unread part of the row being emitted
	rend  int
}

// NewGroupJoin returns a group join of a source-grouped left with right,
// pulling batchSize pairs per child call.
func NewGroupJoin(left, right Operator, batchSize int) *GroupJoin {
	batchSize = max(batchSize, 1)
	return &GroupJoin{left: newInput(left, batchSize), right: right, batchSize: batchSize}
}

func (j *GroupJoin) children() []Operator { return []Operator{j.left.op, j.right} }

// build drains right into rows over every node it mentions, which may
// lie past the graph's node count when an update tier added nodes. It
// reports false if ctx is done first.
func (j *GroupJoin) build() bool {
	buf := make([]Pair, j.batchSize)
	var pairs []Pair
	n := 0
	for !cancelled(j.ctx) {
		m := j.right.NextBatch(buf)
		if m == 0 {
			break
		}
		for _, p := range buf[:m] {
			n = max(n, int(p.Src)+1, int(p.Dst)+1)
		}
		pairs = append(pairs, buf[:m]...)
	}
	// A cancelled right child stops with 0 too: its rows are partial.
	if cancelled(j.ctx) {
		return false
	}
	j.rows = newAdjacency(n, pairs)
	j.seen = make([]uint32, n)
	j.built = true
	return true
}

// NextBatch implements Operator.
func (j *GroupJoin) NextBatch(buf []Pair) int {
	if len(buf) == 0 || cancelled(j.ctx) {
		return 0
	}
	if !j.built && !j.build() {
		return 0
	}
	seen := j.seen
	n := 0
	for n < len(buf) {
		if j.ri < j.rend {
			row, s, stamp := j.rows.to[j.ri:j.rend], j.src, j.stamp
			i := 0
			for ; i < len(row) && n < len(buf); i++ {
				if t := row[i]; seen[t] != stamp {
					seen[t] = stamp
					buf[n] = Pair{Src: s, Dst: t}
					n++
				}
			}
			j.ri += i
			continue
		}
		if !j.left.fill() {
			break
		}
		l := j.left.buf[j.left.pos]
		j.left.pos++
		if l.Src != j.src || j.stamp == 0 {
			j.src = l.Src
			j.stamp++
		}
		if int(l.Dst) < len(j.rows.off)-1 {
			j.ri, j.rend = j.rows.off[l.Dst], j.rows.off[l.Dst+1]
		}
	}
	return j.emit(n)
}

// Name implements Operator.
func (j *GroupJoin) Name() string { return "group-join" }
