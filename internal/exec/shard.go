// This file implements scatter-gather execution over source-partitioned
// storage. A plan.Scatter node builds one operator tree per shard — the
// head (source-determining) position of each tree reads only its shard,
// so per-shard outputs are disjoint by construction — and a Gather
// operator merges the per-shard streams back together: one goroutine per
// shard drains its tree batch-at-a-time into a bounded channel, and the
// consumer k-way merges the stream heads, deduplicating at the merge
// frontier.
//
// Which heads can be restricted to a shard:
//
//   - a forward scan: its physical run is partitioned by source — read
//     the shard's sub-run directly;
//   - an inverted scan: its physical run is partitioned by the *other*
//     endpoint — broadcast the global scan and filter the emitted
//     sources to the shard (order-preserving, so merge joins above it
//     still see target order);
//   - a closure: restrict its input (the ε input becomes the shard's
//     identity pairs), since closure outputs inherit the input's sources;
//   - anything else (reach-scans): evaluate globally and filter.
//
// Join right sides and closure bodies always read the whole index: they
// compose through intermediate nodes owned by arbitrary shards.

package exec

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

// pairLess orders pairs by (Src, Dst), or by (Dst, Src) when byDst is
// set — the emitted order of inverted scans.
func pairLess(a, b Pair, byDst bool) bool {
	if byDst {
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Src < b.Src
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Dst < b.Dst
}

// KWayMergeUnion streams the ordered union of N sorted child streams —
// the per-shard scans of one relation — preserving the order a
// single-run scan would produce: (src,dst), or (dst,src) under byDst for
// inverted scans. Duplicates across children are dropped at the merge
// frontier (shard runs are disjoint, so this is defensive). It is the
// sorted merge-union the overlay scan uses for base+delta, generalized
// to N inputs; it pulls children synchronously and owns no goroutines.
type KWayMergeUnion struct {
	kids    []input
	ops     []Operator
	byDst   bool
	started bool
	last    Pair
	hasLast bool
	ctx     context.Context
	rows    int
	batches int
}

// NewKWayMergeUnion returns a k-way merge-union of sorted children using
// DefaultBatchSize child buffers.
func NewKWayMergeUnion(kids []Operator, byDst bool) *KWayMergeUnion {
	return NewKWayMergeUnionSized(kids, byDst, DefaultBatchSize)
}

// NewKWayMergeUnionSized is NewKWayMergeUnion with an explicit child
// batch size (minimum 1).
func NewKWayMergeUnionSized(kids []Operator, byDst bool, batchSize int) *KWayMergeUnion {
	if batchSize < 1 {
		batchSize = 1
	}
	m := &KWayMergeUnion{ops: kids, byDst: byDst}
	m.kids = make([]input, len(kids))
	for i, k := range kids {
		m.kids[i] = newInput(k, batchSize)
	}
	return m
}

func (m *KWayMergeUnion) setContext(ctx context.Context) { m.ctx = ctx }

func (m *KWayMergeUnion) children() []Operator { return m.ops }

// NextBatch implements Operator.
func (m *KWayMergeUnion) NextBatch(buf []Pair) int {
	if cancelled(m.ctx) {
		return 0
	}
	if !m.started {
		m.started = true
		for i := range m.kids {
			m.kids[i].fill()
		}
	}
	n := 0
	for n < len(buf) {
		best := -1
		for i := range m.kids {
			k := &m.kids[i]
			if k.pos >= k.n {
				continue
			}
			if best < 0 || pairLess(k.buf[k.pos], m.kids[best].buf[m.kids[best].pos], m.byDst) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		k := &m.kids[best]
		pr := k.buf[k.pos]
		k.pos++
		if k.pos == k.n {
			k.fill()
		}
		if m.hasLast && pr == m.last {
			continue
		}
		m.last, m.hasLast = pr, true
		buf[n] = pr
		n++
	}
	m.rows += n
	if n > 0 {
		m.batches++
	}
	return n
}

// Rows implements Operator.
func (m *KWayMergeUnion) Rows() int { return m.rows }

// Batches implements Operator.
func (m *KWayMergeUnion) Batches() int { return m.batches }

// Name implements Operator.
func (m *KWayMergeUnion) Name() string { return "kway-merge-union" }

// Gather merges per-shard operator streams concurrently: one goroutine
// per shard drains its tree into a bounded channel, and NextBatch k-way
// merges the channel heads in (src,dst) order with frontier dedup. This
// is where scatter plans turn shards into parallelism — each shard's
// scans, joins, and closures run on its own goroutine while the consumer
// merges.
//
// Cancellation: senders stop at batch boundaries once ctx is done or the
// gather is quiesced. A Gather that returned 0 has no goroutines left;
// abandoning one mid-stream requires Quiesce (exec.Run*/core call it),
// which stops the senders and waits for them, making the children safe
// to inspect for stats.
type Gather struct {
	kids      []Operator
	ctx       context.Context
	batchSize int

	started  bool
	chans    []chan []Pair
	heads    [][]Pair
	pos      []int
	open     []bool
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup

	last    Pair
	hasLast bool
	rows    int
	batches int
}

// NewGather returns a gather over per-shard children. Senders honor ctx;
// batchSize bounds each transfer (minimum 1, DefaultBatchSize when 0).
func NewGather(kids []Operator, batchSize int, ctx context.Context) *Gather {
	if batchSize < 1 {
		batchSize = DefaultBatchSize
	}
	return &Gather{kids: kids, batchSize: batchSize, ctx: ctx, quit: make(chan struct{})}
}

func (g *Gather) setContext(ctx context.Context) { g.ctx = ctx }

func (g *Gather) children() []Operator { return g.kids }

func (g *Gather) start() {
	n := len(g.kids)
	g.chans = make([]chan []Pair, n)
	g.heads = make([][]Pair, n)
	g.pos = make([]int, n)
	g.open = make([]bool, n)
	for i, kid := range g.kids {
		ch := make(chan []Pair, 2)
		g.chans[i] = ch
		g.open[i] = true
		g.wg.Add(1)
		go g.drain(kid, ch)
	}
}

// drain is the per-shard sender: it pulls batches from kid and ships
// copies over ch, stopping at the first empty batch, on quiesce, or when
// ctx is done. The channel is always closed on exit, which is how the
// consumer learns the shard is exhausted.
func (g *Gather) drain(kid Operator, ch chan<- []Pair) {
	defer g.wg.Done()
	defer close(ch)
	var done <-chan struct{}
	if g.ctx != nil {
		done = g.ctx.Done()
	}
	buf := make([]Pair, g.batchSize)
	for {
		select {
		case <-g.quit:
			return
		default:
		}
		n := kid.NextBatch(buf)
		if n == 0 {
			return
		}
		batch := make([]Pair, n)
		copy(batch, buf[:n])
		select {
		case ch <- batch:
		case <-g.quit:
			return
		case <-done:
			return
		}
	}
}

// advance replaces shard i's head batch with the next one, marking the
// shard exhausted when its channel closes.
func (g *Gather) advance(i int) {
	b, ok := <-g.chans[i]
	if !ok {
		g.open[i] = false
		g.heads[i] = nil
		g.pos[i] = 0
		return
	}
	g.heads[i] = b
	g.pos[i] = 0
}

// NextBatch implements Operator.
func (g *Gather) NextBatch(buf []Pair) int {
	if !g.started {
		g.started = true
		g.start()
		for i := range g.kids {
			g.advance(i)
		}
	}
	if cancelled(g.ctx) {
		g.Quiesce()
		return 0
	}
	n := 0
	for n < len(buf) {
		best := -1
		for i := range g.kids {
			if !g.open[i] {
				continue
			}
			if best < 0 || pairLess(g.heads[i][g.pos[i]], g.heads[best][g.pos[best]], false) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		pr := g.heads[best][g.pos[best]]
		g.pos[best]++
		if g.pos[best] == len(g.heads[best]) {
			g.advance(best)
		}
		if g.hasLast && pr == g.last {
			continue
		}
		g.last, g.hasLast = pr, true
		buf[n] = pr
		n++
	}
	if n == 0 {
		g.Quiesce()
		return 0
	}
	g.rows += n
	g.batches++
	return n
}

// Quiesce stops the per-shard senders and waits for them to exit. Safe
// to call any number of times, before or after exhaustion; afterwards
// the children's counters are stable for CollectStats.
func (g *Gather) Quiesce() {
	if !g.started {
		return
	}
	g.quitOnce.Do(func() { close(g.quit) })
	g.wg.Wait()
}

// Rows implements Operator.
func (g *Gather) Rows() int { return g.rows }

// Batches implements Operator.
func (g *Gather) Batches() int { return g.batches }

// Name implements Operator.
func (g *Gather) Name() string { return "gather" }

// quiescer is implemented by operators that own goroutines.
type quiescer interface{ Quiesce() }

// Quiesce stops and awaits every goroutine-owning operator in the tree.
// Drained trees quiesce themselves; callers that may abandon a tree
// mid-stream (early error, cancellation) must call this before reading
// operator stats or releasing the storage pins the tree reads under.
func Quiesce(op Operator) {
	if q, ok := op.(quiescer); ok {
		q.Quiesce()
	}
	if hc, ok := op.(interface{ children() []Operator }); ok {
		for _, c := range hc.children() {
			Quiesce(c)
		}
	}
}

// ShardFilter keeps only the pairs whose source the partitioner assigns
// to one shard — the broadcast half of scatter plans (inverted scans,
// reach-scans). Filtering preserves the child's emission order, so a
// target-ordered inverted scan stays target-ordered for the merge join
// above it.
type ShardFilter struct {
	child   Operator
	part    pathindex.Partitioner
	shard   int
	ctx     context.Context
	rows    int
	batches int
}

// NewShardFilter returns a filter over child keeping shard's sources.
func NewShardFilter(child Operator, part pathindex.Partitioner, shard int) *ShardFilter {
	return &ShardFilter{child: child, part: part, shard: shard}
}

func (f *ShardFilter) setContext(ctx context.Context) { f.ctx = ctx }

func (f *ShardFilter) children() []Operator { return []Operator{f.child} }

// NextBatch implements Operator. Empty post-filter batches are retried
// (0 means exhaustion), polling cancellation each round.
func (f *ShardFilter) NextBatch(buf []Pair) int {
	for {
		if cancelled(f.ctx) {
			return 0
		}
		n := f.child.NextBatch(buf)
		if n == 0 {
			return 0
		}
		kept := 0
		for i := 0; i < n; i++ {
			if f.part.ShardOf(buf[i].Src) == f.shard {
				buf[kept] = buf[i]
				kept++
			}
		}
		if kept > 0 {
			f.rows += kept
			f.batches++
			return kept
		}
	}
}

// Rows implements Operator.
func (f *ShardFilter) Rows() int { return f.rows }

// Batches implements Operator.
func (f *ShardFilter) Batches() int { return f.batches }

// Name implements Operator.
func (f *ShardFilter) Name() string { return "shard-filter" }

// ShardIdentityScan emits (n, n) for every node the partitioner assigns
// to one shard, in ascending node order — the ε closure input of
// scattered closure plans.
type ShardIdentityScan struct {
	n, total int
	part     pathindex.Partitioner
	shard    int
	ctx      context.Context
	rows     int
	batches  int
}

// NewShardIdentityScan returns the shard-restricted identity scan over
// g's nodes.
func NewShardIdentityScan(g *graph.Graph, part pathindex.Partitioner, shard int) *ShardIdentityScan {
	return &ShardIdentityScan{total: g.NumNodes(), part: part, shard: shard}
}

func (s *ShardIdentityScan) setContext(ctx context.Context) { s.ctx = ctx }

// NextBatch implements Operator.
func (s *ShardIdentityScan) NextBatch(buf []Pair) int {
	if cancelled(s.ctx) {
		return 0
	}
	n := 0
	for n < len(buf) && s.n < s.total {
		id := graph.NodeID(s.n)
		s.n++
		if s.part.ShardOf(id) != s.shard {
			continue
		}
		buf[n] = Pair{Src: id, Dst: id}
		n++
	}
	s.rows += n
	if n > 0 {
		s.batches++
	}
	return n
}

// Rows implements Operator.
func (s *ShardIdentityScan) Rows() int { return s.rows }

// Batches implements Operator.
func (s *ShardIdentityScan) Batches() int { return s.batches }

// Name implements Operator.
func (s *ShardIdentityScan) Name() string { return "shard-identity-scan" }

// buildScatter builds a plan.Scatter node: one shard-restricted tree per
// shard under a Gather. Over unsharded storage the scatter is
// transparent — its child builds as if the node were absent — so plans
// compiled for a sharded engine still execute anywhere.
func buildScatter(v *plan.Scatter, ix pathindex.Storage, opts BuildOptions) (Operator, error) {
	sh, ok := pathindex.AsSharded(ix)
	if !ok {
		return buildNode(v.Child, ix, opts)
	}
	n := sh.Partitioner().NumShards()
	if n == 1 {
		return buildShardNode(v.Child, ix, sh, 0, opts)
	}
	kids := make([]Operator, n)
	for i := 0; i < n; i++ {
		kid, err := buildShardNode(v.Child, ix, sh, i, opts)
		if err != nil {
			return nil, err
		}
		kids[i] = kid
	}
	return NewGather(kids, opts.batchSize(), opts.Ctx), nil
}

// buildShardNode builds n's operator tree restricted to one shard's
// sources, per the head rules in the package comment above.
func buildShardNode(n plan.Node, ix pathindex.Storage, sh pathindex.Sharded, shard int, opts BuildOptions) (Operator, error) {
	switch v := n.(type) {
	case *plan.Scatter:
		// Nested scatter collapses: we are already inside one shard.
		return buildShardNode(v.Child, ix, sh, shard, opts)
	case *plan.Scan:
		if len(v.Segment) > ix.K() {
			return nil, fmt.Errorf("exec: segment %v longer than index k=%d", v.Segment, ix.K())
		}
		if !v.Inverted {
			// Forward head: the shard's sub-run is the restriction.
			return WithContext(newSegmentScan(sh.Shard(shard), v.Segment, false), opts.Ctx), nil
		}
		// Inverted head: physically partitioned by the other endpoint —
		// broadcast and filter, preserving target order.
		return WithContext(NewShardFilter(newSegmentScan(ix, v.Segment, true), sh.Partitioner(), shard), opts.Ctx), nil
	case *plan.Join:
		left, err := buildShardNode(v.Left, ix, sh, shard, opts)
		if err != nil {
			return nil, err
		}
		// The right side composes through mid nodes of any shard: global.
		right, err := buildNode(v.Right, ix, opts)
		if err != nil {
			return nil, err
		}
		var join Operator
		if v.Algo == plan.Merge {
			join = NewMergeJoinSized(left, right, opts.batchSize())
		} else {
			join = NewHashJoinSized(left, right, v.BuildRight, opts.batchSize())
		}
		join = WithContext(join, opts.Ctx)
		if opts.PerJoinDedup {
			join = WithContext(NewDistinctSized(join, opts.batchSize()), opts.Ctx)
		}
		return join, nil
	case *plan.Closure:
		// Closure outputs inherit the input's sources: restrict the
		// input, keep the body global.
		var inOp Operator
		if v.Input == nil {
			inOp = WithContext(NewShardIdentityScan(ix.Graph(), sh.Partitioner(), shard), opts.Ctx)
		} else {
			op, err := buildShardNode(v.Input, ix, sh, shard, opts)
			if err != nil {
				return nil, err
			}
			inOp = op
		}
		body := make([]Operator, len(v.Body))
		for i, b := range v.Body {
			op, err := buildNode(b, ix, opts)
			if err != nil {
				return nil, err
			}
			body[i] = op
		}
		return buildClosure(inOp, body, opts.batchSize(), v.Streamed, ix.Graph().NumNodes(), opts.Ctx), nil
	default:
		// Reach-scans and anything new: global evaluation, filtered.
		op, err := buildNode(n, ix, opts)
		if err != nil {
			return nil, err
		}
		return WithContext(NewShardFilter(op, sh.Partitioner(), shard), opts.Ctx), nil
	}
}
