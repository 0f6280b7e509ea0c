// Package exec provides the physical operators that evaluate the plans of
// internal/plan against a k-path index: index scans (full and
// source-bound), group joins over source-grouped inputs, hash joins,
// probe joins over prefix lookups, identity scans for ε, and the
// top-level deduplicating union that realizes the paper's set semantics
// for query answers.
//
// Duplicates are removed by source where the stream allows it: a group
// join and a closure emit each source's targets once, stamping a dense
// array per source group, and a union whose children are all in
// ascending source order merges them and dedups each group the same
// way. Only streams out of source order — hash and probe joins,
// concatenated shard scans and the group joins over them, gathers —
// pass through a hash set (pairSet).
//
// Operators are vectorized: NextBatch fills a caller-supplied buffer with
// up to len(buf) (source, target) pairs per call, so the per-tuple
// interface dispatch of the classic Volcano model is paid once per batch
// instead of once per pair. Index scans decode zero-copy blocks of the
// index's sorted packed runs straight into the batch buffer. Operators
// also expose runtime counters (rows and batches) for the engine's
// statistics output.
package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

// Pair is a query result: a (source, target) node pair.
type Pair = pathindex.Pair

// DefaultBatchSize is the batch buffer size used by Run and by internal
// operator buffers when the caller does not choose one.
const DefaultBatchSize = 1024

// Operator produces a stream of pairs, one batch at a time.
type Operator interface {
	// NextBatch fills buf with up to len(buf) pairs and returns the
	// number filled. It returns 0 only at exhaustion (never as an empty
	// intermediate batch), so a 0 return terminates the stream. buf must
	// be non-empty.
	NextBatch(buf []Pair) int
	// Rows returns the number of pairs produced so far.
	Rows() int
	// Batches returns the number of non-empty batches produced so far.
	Batches() int
	// Name identifies the operator kind in statistics output.
	Name() string
}

// opBase is the state every operator embeds: the context it polls at
// batch boundaries and its output counters, with the Rows, Batches and
// setContext methods over them.
type opBase struct {
	ctx     context.Context
	rows    int
	batches int
}

func (b *opBase) setContext(ctx context.Context) { b.ctx = ctx }

// Rows implements Operator.
func (b *opBase) Rows() int { return b.rows }

// Batches implements Operator.
func (b *opBase) Batches() int { return b.batches }

// emit counts a batch of n pairs (none when n is 0) and returns n.
func (b *opBase) emit(n int) int {
	b.rows += n
	if n > 0 {
		b.batches++
	}
	return n
}

// Stats aggregates runtime counters over an operator tree.
type Stats struct {
	RowsByOperator    map[string]int
	BatchesByOperator map[string]int
	TotalRows         int
	TotalBatches      int
}

// CollectStats walks an operator tree, summing produced rows and batches
// by operator kind.
func CollectStats(op Operator) Stats {
	st := Stats{RowsByOperator: map[string]int{}, BatchesByOperator: map[string]int{}}
	var walk func(Operator)
	walk = func(op Operator) {
		st.RowsByOperator[op.Name()] += op.Rows()
		st.BatchesByOperator[op.Name()] += op.Batches()
		st.TotalRows += op.Rows()
		st.TotalBatches += op.Batches()
		type hasChildren interface{ children() []Operator }
		if hc, ok := op.(hasChildren); ok {
			for _, c := range hc.children() {
				walk(c)
			}
		}
	}
	walk(op)
	return st
}

// BuildOptions configures operator-tree construction.
type BuildOptions struct {
	// PerJoinDedup wraps every hash and probe join in a Distinct
	// operator, trading hash-set maintenance for smaller intermediate
	// results (ablation Ext-3c). A group join emits a set already and is
	// never wrapped. The root of the tree is duplicate-free regardless
	// (see duplicateFree), so results are identical either way.
	PerJoinDedup bool
	// BatchSize sets the internal buffer size operators use when pulling
	// from their children; 0 uses DefaultBatchSize. Exposed for the
	// batch-size micro-benchmarks.
	BatchSize int
	// Workers, when > 1 and the plan has several disjuncts, drains the
	// disjunct trees (and the ε scan) concurrently: they go under one
	// Gather with that many senders, below the root union.
	Workers int
	// Ctx, when non-nil, is checked by every operator at batch
	// boundaries: once it is done, operators stop producing and return 0,
	// so the whole tree winds down within one batch per level. A
	// cancelled stream terminates early rather than at exhaustion —
	// check ctx after the drain so partial results are never mistaken
	// for the answer.
	Ctx context.Context
}

func (o BuildOptions) batchSize() int {
	if o.BatchSize < 1 {
		return DefaultBatchSize
	}
	return o.BatchSize
}

// cancelled reports whether ctx is done. Operators consult it once per
// batch boundary; the nil-ctx default costs a single comparison, so
// uncancellable trees pay nothing measurable.
func cancelled(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// contextual is implemented by operators that honor batch-boundary
// cancellation.
type contextual interface{ setContext(ctx context.Context) }

// WithContext attaches ctx to op so its NextBatch stops producing once
// ctx is done. Trees built via Build inherit BuildOptions.Ctx on every
// node automatically; this is for operators constructed directly.
func WithContext(op Operator, ctx context.Context) Operator {
	if ctx != nil {
		if c, ok := op.(contextual); ok {
			c.setContext(ctx)
		}
	}
	return op
}

// Build translates a physical plan into an operator tree over ix. The
// identity (ε) disjunct enumerates all graph nodes. With opts.Workers > 1
// a plan of several disjuncts fans them out under a Gather.
func Build(p *plan.Plan, ix pathindex.Storage, opts BuildOptions) (Operator, error) {
	var ops []Operator
	if p.HasEpsilon {
		ops = append(ops, WithContext(NewIdentityScan(ix.Graph()), opts.Ctx))
	}
	for _, d := range p.Disjuncts {
		op, err := buildNode(d, ix, opts)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	// Every result pair is deduplicated exactly once. A lone disjunct
	// whose root already emits a set is the answer as is; otherwise the
	// union dedups, which makes each disjunct's own root Distinct
	// redundant (the per-join Distincts below it stay: they shrink join
	// inputs).
	if len(ops) == 1 && duplicateFree(ops[0]) {
		return ops[0], nil
	}
	for i, op := range ops {
		ops[i] = stripRootDistinct(op)
	}
	if opts.Workers > 1 && len(p.Disjuncts) > 1 {
		ops = []Operator{NewGather(ops, opts.Workers, opts.batchSize(), opts.Ctx)}
	}
	return WithContext(NewUnionDistinctSized(ops, opts.batchSize()), opts.Ctx), nil
}

// duplicateFree reports whether op emits no pair twice — the one rule
// that places duplicate elimination. Duplicates arise only where a hash
// or probe join projects away its middle node and where a union
// concatenates streams; every other operator emits a set: scans read a
// relation (a ConcatScan reads disjoint shard runs), Distinct keeps a
// seen-set, and a closure and a group join emit each source's targets
// once. A Gather is a union of disjuncts, which overlap, so it is never
// duplicate-free, not even over Distincts.
func duplicateFree(op Operator) bool {
	switch op.(type) {
	case *IndexScan, *ConcatScan, *IdentityScan,
		*StreamClosure, *GroupJoin, *Distinct, *UnionDistinct:
		return true
	}
	return false
}

// sourceOrdered reports whether op emits its pairs grouped by ascending
// source — what a by-source union merges: a scan reads a run sorted by
// source, the identity scan counts up, a closure walks its seeds by
// source and a group join keeps its left input's order. Concatenated
// shard scans (ascending within each shard only), hash and probe joins,
// the Distincts over them, and gathers are not.
func sourceOrdered(op Operator) bool {
	switch v := op.(type) {
	case *IndexScan, *IdentityScan, *StreamClosure:
		return true
	case *GroupJoin:
		return sourceOrdered(v.left.op)
	}
	return false
}

// sourceGrouped reports whether each source's pairs arrive together in
// op's stream — what a group join needs of its left input: a stream in
// source order, or a ConcatScan, whose shards hold disjoint sources, or
// a group join, whose left input is grouped (Build checks it).
func sourceGrouped(op Operator) bool {
	switch op.(type) {
	case *ConcatScan, *GroupJoin:
		return true
	}
	return sourceOrdered(op)
}

// stripRootDistinct removes the Distinct at the root of a disjunct.
func stripRootDistinct(op Operator) Operator {
	if d, ok := op.(*Distinct); ok {
		return d.child
	}
	return op
}

func buildNode(n plan.Node, ix pathindex.Storage, opts BuildOptions) (Operator, error) {
	switch v := n.(type) {
	case *plan.Scan:
		if len(v.Segment) > ix.K() {
			return nil, fmt.Errorf("exec: segment %v longer than index k=%d", v.Segment, ix.K())
		}
		if v.Inverted {
			return nil, fmt.Errorf("exec: inverted scan of %v: scans read in source order only", v.Segment)
		}
		if v.Bound {
			// The ⟨segment, src⟩ run — a seek to (src, 0) read up to
			// (src+1, 0) — is the scan's already-loaded block, with an
			// empty iterator behind it. Nothing reads the cursor again,
			// so the run stays valid.
			cur := ix.Blocks(v.Segment)
			run := cur.SrcRun(v.Src)
			if err := cur.Err(); err != nil {
				return nil, err
			}
			scan := &IndexScan{blocks: new(pathindex.BlockIterator), block: run}
			return WithContext(scan, opts.Ctx), nil
		}
		return WithContext(newSegmentScan(ix, v.Segment), opts.Ctx), nil
	case *plan.Identity:
		return WithContext(&IdentityScan{n: int(v.Src), total: int(v.Src) + 1}, opts.Ctx), nil
	case *plan.Join:
		left, err := buildNode(v.Left, ix, opts)
		if err != nil {
			return nil, err
		}
		if v.Algo == plan.Group && !sourceGrouped(left) {
			return nil, fmt.Errorf("exec: group join over a %s left input, which is not grouped by source", left.Name())
		}
		var join Operator
		if v.Algo == plan.Probe {
			// The right scan names the probed segment; it is never read whole.
			join = NewProbeJoin(left, ix, v.Right.(*plan.Scan).Segment, opts.batchSize())
		} else {
			right, err := buildNode(v.Right, ix, opts)
			if err != nil {
				return nil, err
			}
			switch v.Algo {
			case plan.Group:
				join = NewGroupJoin(left, right, opts.batchSize())
			default:
				join = NewHashJoinSized(left, right, v.BuildRight, opts.batchSize())
			}
		}
		join = WithContext(join, opts.Ctx)
		if opts.PerJoinDedup && v.Algo != plan.Group {
			join = WithContext(NewDistinctSized(join, opts.batchSize()), opts.Ctx)
		}
		return join, nil
	case *plan.Closure:
		input := Operator(NewIdentityScan(ix.Graph()))
		if v.Input != nil {
			in, err := buildNode(v.Input, ix, opts)
			if err != nil {
				return nil, err
			}
			input = in
		}
		body := make([]Operator, len(v.Body))
		for i, b := range v.Body {
			op, err := buildNode(b, ix, opts)
			if err != nil {
				return nil, err
			}
			body[i] = op
		}
		return WithContext(NewStreamClosure(input, body...), opts.Ctx), nil
	default:
		return nil, fmt.Errorf("exec: unknown plan node %T", n)
	}
}

// Err returns the first error a storage cursor of op's tree met. A
// corrupt block ends its cursor's stream early, so a drained tree's
// answer is the query's answer only when Err returns nil. Gathers must
// be quiesced first (see Quiesce).
func Err(op Operator) error {
	if c, ok := op.(interface{ cursorErr() error }); ok {
		if err := c.cursorErr(); err != nil {
			return err
		}
	}
	if hc, ok := op.(interface{ children() []Operator }); ok {
		for _, c := range hc.children() {
			if err := Err(c); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run drains an operator into a result slice using DefaultBatchSize
// batches.
func Run(op Operator) []Pair {
	return RunSized(op, DefaultBatchSize)
}

// RunSized drains an operator using the given batch size (minimum 1).
func RunSized(op Operator, batchSize int) []Pair {
	if batchSize < 1 {
		batchSize = 1
	}
	buf := make([]Pair, batchSize)
	var out []Pair
	for {
		n := op.NextBatch(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// IndexScan streams one segment's relation from the index in (source,
// target) order by decoding its sorted packed blocks into the batch
// buffer — no per-pair calls and no intermediate allocation.
type IndexScan struct {
	opBase
	blocks *pathindex.BlockIterator
	block  []pathindex.Packed
	off    int
}

// newSegmentScan builds the scan operator for one segment: over
// sharded storage, the concatenation of the per-shard scans; otherwise
// an IndexScan over the storage's blocks (Storage.Blocks decodes a
// compressed run block by block and merges a tier stack's runs).
func newSegmentScan(ix pathindex.Storage, segment pathindex.Path) Operator {
	if sh, ok := pathindex.AsSharded(ix); ok {
		// One shard's scan is the whole, sorted run.
		n := sh.Partitioner().NumShards()
		if n == 1 {
			return newSegmentScan(sh.Shard(0), segment)
		}
		kids := make([]Operator, n)
		for i := range kids {
			kids[i] = newSegmentScan(sh.Shard(i), segment)
		}
		return &ConcatScan{kids: kids}
	}
	return NewIndexScan(ix, segment)
}

// NewIndexScan returns a scan of segment.
func NewIndexScan(ix pathindex.Storage, segment pathindex.Path) *IndexScan {
	return &IndexScan{blocks: ix.Blocks(segment)}
}

// NextBatch implements Operator.
func (s *IndexScan) NextBatch(buf []Pair) int {
	if cancelled(s.ctx) {
		return 0
	}
	n := 0
	for n < len(buf) {
		if s.off == len(s.block) {
			s.block = s.blocks.Next()
			s.off = 0
			if len(s.block) == 0 {
				break
			}
		}
		src := s.block[s.off:]
		dst := buf[n:]
		m := len(src)
		if m > len(dst) {
			m = len(dst)
		}
		for i := 0; i < m; i++ {
			pr := src[i]
			dst[i] = Pair{Src: pr.Src(), Dst: pr.Dst()}
		}
		n += m
		s.off += m
	}
	return s.emit(n)
}

// Name implements Operator.
func (s *IndexScan) Name() string { return "index-scan" }

func (s *IndexScan) cursorErr() error { return s.blocks.Err() }

// IdentityScan emits (n, n) for every node of the graph, realizing the ε
// disjunct.
type IdentityScan struct {
	opBase
	n, total int
}

// NewIdentityScan returns an identity scan over g's nodes.
func NewIdentityScan(g *graph.Graph) *IdentityScan {
	return &IdentityScan{total: g.NumNodes()}
}

// NextBatch implements Operator.
func (s *IdentityScan) NextBatch(buf []Pair) int {
	if cancelled(s.ctx) {
		return 0
	}
	n := 0
	for n < len(buf) && s.n < s.total {
		id := graph.NodeID(s.n)
		buf[n] = Pair{Src: id, Dst: id}
		s.n++
		n++
	}
	return s.emit(n)
}

// Name implements Operator.
func (s *IdentityScan) Name() string { return "identity-scan" }

// input buffers a child operator's batches for consumption at arbitrary
// positions — the building block of the batched joins. Methods are
// concrete (no interface dispatch) so per-pair cursor movement inside a
// join stays cheap; crossing a batch boundary costs one NextBatch call.
type input struct {
	op   Operator
	buf  []Pair
	n    int // filled length of buf
	pos  int // consumption cursor
	done bool
}

func newInput(op Operator, batchSize int) input {
	return input{op: op, buf: make([]Pair, batchSize)}
}

// fillGrowing is fill that first doubles the buffer, up to limit pairs,
// when the last refill filled it: an input that streams many pairs
// reaches full batches after a few refills, and one of a few pairs
// never allocates more than its first small buffer.
func (in *input) fillGrowing(limit int) bool {
	if in.pos == in.n && in.n == len(in.buf) && len(in.buf) < limit {
		in.buf = make([]Pair, min(2*len(in.buf), limit))
	}
	return in.fill()
}

// fill ensures pos < n, pulling the next batch when the current one is
// consumed. It reports false at exhaustion.
func (in *input) fill() bool {
	for in.pos == in.n {
		if in.done {
			return false
		}
		in.n = in.op.NextBatch(in.buf)
		in.pos = 0
		if in.n == 0 {
			in.done = true
			return false
		}
	}
	return true
}

// HashJoin composes left with right on left.dst = right.src, building a
// hash table from whole batches of one side and probing with batches of
// the other.
type HashJoin struct {
	opBase
	left, right Operator
	buildRight  bool
	batchSize   int

	built bool
	table map[graph.NodeID][]graph.NodeID
	probe input

	cur     Pair // current probe row
	matches []graph.NodeID
	mi      int
}

// NewHashJoin returns a hash join; buildRight selects the hashed side.
func NewHashJoin(left, right Operator, buildRight bool) *HashJoin {
	return NewHashJoinSized(left, right, buildRight, DefaultBatchSize)
}

// NewHashJoinSized returns a hash join whose build and probe loops move
// batchSize pairs per child call.
func NewHashJoinSized(left, right Operator, buildRight bool, batchSize int) *HashJoin {
	if batchSize < 1 {
		batchSize = 1
	}
	return &HashJoin{left: left, right: right, buildRight: buildRight, batchSize: batchSize}
}

func (h *HashJoin) children() []Operator { return []Operator{h.left, h.right} }

func (h *HashJoin) build() {
	h.table = map[graph.NodeID][]graph.NodeID{}
	buf := make([]Pair, h.batchSize)
	if h.buildRight {
		// Hash right on src -> list of dst; probe with left rows.
		for {
			n := h.right.NextBatch(buf)
			if n == 0 {
				break
			}
			for _, pr := range buf[:n] {
				h.table[pr.Src] = append(h.table[pr.Src], pr.Dst)
			}
		}
		h.probe = newInput(h.left, h.batchSize)
	} else {
		// Hash left on dst -> list of src; probe with right rows.
		for {
			n := h.left.NextBatch(buf)
			if n == 0 {
				break
			}
			for _, pr := range buf[:n] {
				h.table[pr.Dst] = append(h.table[pr.Dst], pr.Src)
			}
		}
		h.probe = newInput(h.right, h.batchSize)
	}
	h.built = true
}

// NextBatch implements Operator.
func (h *HashJoin) NextBatch(buf []Pair) int {
	if cancelled(h.ctx) {
		return 0
	}
	if !h.built {
		h.build()
	}
	n := 0
	for {
		// Emit pending matches of the current probe row.
		for h.mi < len(h.matches) {
			if n == len(buf) {
				return h.emit(n)
			}
			if h.buildRight {
				// probe row is a left row (a,b); matches are right dsts.
				buf[n] = Pair{Src: h.cur.Src, Dst: h.matches[h.mi]}
			} else {
				// probe row is a right row (b,c); matches are left srcs.
				buf[n] = Pair{Src: h.matches[h.mi], Dst: h.cur.Dst}
			}
			h.mi++
			n++
		}
		if !h.probe.fill() {
			return h.emit(n)
		}
		h.cur = h.probe.buf[h.probe.pos]
		h.probe.pos++
		if h.buildRight {
			h.matches = h.table[h.cur.Dst]
		} else {
			h.matches = h.table[h.cur.Src]
		}
		h.mi = 0
	}
}

// Name implements Operator.
func (h *HashJoin) Name() string { return "hash-join" }

// ProbeJoin composes left with one segment's relation by prefix
// lookups: for each left pair (s, m) it reads the ⟨segment, m⟩ run of
// the index — the paper's I_{G,k}(⟨p, a⟩) lookup — and emits (s, t) for
// every t in it. It is the join of bound plans, whose left inputs are
// one source's reach, far smaller than the right relation a scan would
// read.
//
// The join keeps one cursor on the segment for its whole life and sorts
// each left batch by (Dst, Src) before it probes, so the lookups of a
// batch ascend: each distinct join node is read once, and over a
// compressed run each block the batch touches is decoded once. The
// storage's cursor routes a lookup to the owning shard and merges it
// over update tiers.
type ProbeJoin struct {
	opBase
	left      input // its batch is sorted by (Dst, Src) once pulled
	batchSize int   // the most left pairs pulled at once
	cur       *pathindex.BlockIterator

	// The group being expanded: left.buf[gi:gj] share the join node
	// whose ⟨seg, m⟩ run is run; left.buf[gi]'s pairs are emitted up to
	// ri.
	gi, gj int
	run    []pathindex.Packed
	ri     int
}

// NewProbeJoin returns a probe join of left with seg's relation in ix,
// pulling up to batchSize left pairs per child call: headMinBatch at
// first, doubling while the left input fills its buffer (see
// fillGrowing). A bound plan's left inputs are mostly a few pairs.
func NewProbeJoin(left Operator, ix pathindex.Storage, seg pathindex.Path, batchSize int) *ProbeJoin {
	batchSize = max(batchSize, 1)
	return &ProbeJoin{left: newInput(left, min(batchSize, headMinBatch)), batchSize: batchSize, cur: ix.Blocks(seg)}
}

func (p *ProbeJoin) children() []Operator { return []Operator{p.left.op} }

// NextBatch implements Operator.
func (p *ProbeJoin) NextBatch(buf []Pair) int {
	if cancelled(p.ctx) {
		return 0
	}
	n := 0
	for n < len(buf) {
		if p.ri < len(p.run) {
			s := p.left.buf[p.gi].Src
			k := min(len(p.run)-p.ri, len(buf)-n)
			for _, pr := range p.run[p.ri : p.ri+k] {
				buf[n] = Pair{Src: s, Dst: pr.Dst()}
				n++
			}
			p.ri += k
			continue
		}
		if p.gi+1 < p.gj && len(p.run) > 0 {
			p.gi, p.ri = p.gi+1, 0
			continue
		}
		if !p.nextGroup() {
			break
		}
	}
	return p.emit(n)
}

// nextGroup reads the run of the next join node of the sorted left
// batch, pulling and sorting a new batch when this one is spent. It
// reports false once left is exhausted.
func (p *ProbeJoin) nextGroup() bool {
	in := &p.left
	if p.gj == in.n {
		p.gj, in.pos = 0, in.n
		if !in.fillGrowing(p.batchSize) {
			return false
		}
		sortByDst(in.buf[:in.n])
	}
	p.gi = p.gj
	m := in.buf[p.gi].Dst
	for p.gj++; p.gj < in.n && in.buf[p.gj].Dst == m; p.gj++ {
	}
	p.run, p.ri = p.cur.SrcRun(m), 0
	return true
}

// sortByDst sorts pairs by (Dst, Src), leaving a sorted batch as it is.
func sortByDst(w []Pair) {
	key := func(pr Pair) uint64 { return uint64(pr.Dst)<<32 | uint64(pr.Src) }
	for i := 1; i < len(w); i++ {
		if key(w[i]) < key(w[i-1]) {
			slices.SortFunc(w, func(a, b Pair) int { return cmp.Compare(key(a), key(b)) })
			return
		}
	}
}

// Name implements Operator.
func (p *ProbeJoin) Name() string { return "probe-join" }

func (p *ProbeJoin) cursorErr() error { return p.cur.Err() }

// dedup filters batches through a seen-set, retaining the first
// occurrence of each pair. It is the shared core of UnionDistinct and
// Distinct: a child batch is pulled into the scratch buffer, surviving
// pairs are compacted into the output buffer, and the scratch cursor
// persists across calls so output buffers may be smaller than child
// batches.
type dedup struct {
	seen    pairSet
	scratch []Pair
	n, pos  int
}

// drain moves deduplicated pairs from scratch[pos:n] into buf[off:],
// returning the new output offset.
func (d *dedup) drain(buf []Pair, off int) int {
	for d.pos < d.n && off < len(buf) {
		pr := d.scratch[d.pos]
		d.pos++
		if d.seen.add(pr) {
			buf[off] = pr
			off++
		}
	}
	return off
}

// refill pulls the next batch of op into scratch, sizing scratch on first
// use. It reports false at exhaustion.
func (d *dedup) refill(op Operator, batchSize int) bool {
	if d.scratch == nil {
		d.scratch = make([]Pair, batchSize)
	}
	d.n = op.NextBatch(d.scratch)
	d.pos = 0
	return d.n > 0
}

// UnionDistinct concatenates child streams and removes duplicate pairs —
// the top-level union over disjuncts with the paper's set semantics.
//
// When every child is in ascending source order (see sourceOrdered) the
// union runs by source: it merges the children on their heads' sources
// and dedups each source group through one array of targets, stamped per
// group, so it hashes nothing and its output is grouped by ascending
// source too. Otherwise it drains the children one after another through
// a pairSet.
type UnionDistinct struct {
	opBase
	kids      []Operator
	i         int
	d         dedup
	batchSize int

	// By source: heads buffers each child, seen maps a target to the
	// stamp of the last source group that emitted it, src is the source
	// of the group being merged and cur the child it is taking pairs
	// from (len(heads) once the group is done).
	bySource bool
	heads    []input
	seen     []uint32
	stamp    uint32
	src      graph.NodeID
	cur      int
}

// NewUnionDistinct returns a deduplicating union of the children with
// default-size child batches.
func NewUnionDistinct(children []Operator) *UnionDistinct {
	return NewUnionDistinctSized(children, DefaultBatchSize)
}

// NewUnionDistinctSized returns a deduplicating union pulling batchSize
// pairs per child call.
func NewUnionDistinctSized(children []Operator, batchSize int) *UnionDistinct {
	if batchSize < 1 {
		batchSize = 1
	}
	u := &UnionDistinct{kids: children, batchSize: batchSize, bySource: len(children) > 0}
	for _, k := range children {
		u.bySource = u.bySource && sourceOrdered(k)
	}
	return u
}

func (u *UnionDistinct) children() []Operator { return u.kids }

// NextBatch implements Operator.
func (u *UnionDistinct) NextBatch(buf []Pair) int {
	if len(buf) == 0 || cancelled(u.ctx) {
		return 0
	}
	if u.bySource {
		return u.emit(u.mergeBySource(buf))
	}
	n := 0
	for {
		n = u.d.drain(buf, n)
		if n == len(buf) && len(buf) > 0 {
			break
		}
		if u.i == len(u.kids) {
			break
		}
		if !u.d.refill(u.kids[u.i], u.batchSize) {
			u.i++
		}
	}
	return u.emit(n)
}

// mergeBySource fills buf from the children's source-ordered streams.
// A source group starts at the least head source; the group then takes,
// child by child, every pair of that source, keeping each target the
// first time the group reaches it.
func (u *UnionDistinct) mergeBySource(buf []Pair) int {
	if u.heads == nil {
		u.heads = make([]input, len(u.kids))
		for i, k := range u.kids {
			u.heads[i] = newInput(k, min(u.batchSize, headMinBatch))
		}
		u.cur = len(u.heads)
	}
	seen, stamp := u.seen, u.stamp
	n := 0
	for n < len(buf) {
		if u.cur == len(u.heads) {
			var least *input
			for i := range u.heads {
				h := &u.heads[i]
				if h.fillGrowing(u.batchSize) && (least == nil || h.buf[h.pos].Src < least.buf[least.pos].Src) {
					least = h
				}
			}
			if least == nil {
				break
			}
			u.src, u.cur = least.buf[least.pos].Src, 0
			stamp++
		}
		h, src := &u.heads[u.cur], u.src
		for n < len(buf) && h.fillGrowing(u.batchSize) && h.buf[h.pos].Src == src {
			w := h.buf[h.pos:h.n]
			i := 0
			for ; i < len(w) && n < len(buf) && w[i].Src == src; i++ {
				t := w[i].Dst
				if int(t) >= len(seen) {
					seen = append(seen, make([]uint32, max(int(t)+1, 2*len(seen))-len(seen))...)
				}
				if seen[t] != stamp {
					seen[t] = stamp
					buf[n] = w[i]
					n++
				}
			}
			h.pos += i
		}
		if n < len(buf) {
			u.cur++
		}
	}
	u.seen, u.stamp = seen, stamp
	return n
}

// headMinBatch is the size of the first buffer of an input that grows
// (see fillGrowing): a by-source union's per child and a probe join's
// left. A bound plan has many such inputs of a few pairs each, and a
// full batch for each would be most of its allocation.
const headMinBatch = 64

// Name implements Operator.
func (u *UnionDistinct) Name() string { return "union-distinct" }

// Distinct deduplicates a single child stream. It is inserted above every
// join when the engine's per-join deduplication ablation is enabled.
type Distinct struct {
	opBase
	child     Operator
	done      bool
	d         dedup
	batchSize int
}

// NewDistinct returns a deduplicating wrapper around child with
// default-size child batches.
func NewDistinct(child Operator) *Distinct {
	return NewDistinctSized(child, DefaultBatchSize)
}

// NewDistinctSized returns a deduplicating wrapper pulling batchSize
// pairs per child call.
func NewDistinctSized(child Operator, batchSize int) *Distinct {
	if batchSize < 1 {
		batchSize = 1
	}
	return &Distinct{child: child, batchSize: batchSize}
}

func (d *Distinct) children() []Operator { return []Operator{d.child} }

// NextBatch implements Operator.
func (d *Distinct) NextBatch(buf []Pair) int {
	if len(buf) == 0 || cancelled(d.ctx) {
		return 0
	}
	n := 0
	for {
		n = d.d.drain(buf, n)
		if n == len(buf) && len(buf) > 0 {
			break
		}
		if d.done {
			break
		}
		if !d.d.refill(d.child, d.batchSize) {
			d.done = true
		}
	}
	return d.emit(n)
}

// Name implements Operator.
func (d *Distinct) Name() string { return "distinct" }
