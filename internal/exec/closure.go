// Kleene-closure operators: the semi-naive fixpoint Closure, which
// iterates a delta frontier of pairs against a materialized body
// relation until no new pairs appear, and ReachScan, which streams a
// restricted closure (ℓ1|…|ℓm)* straight out of a reachability index.

package exec

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/reachability"
)

// ReachProvider supplies reachability indexes for Reach plan nodes. The
// engine implements it with a lazily built per-label-set cache.
type ReachProvider interface {
	ReachIndex(labels []graph.DirLabel) (*reachability.Index, error)
}

// Closure computes the Kleene closure of a body relation applied to an
// input relation by semi-naive fixpoint iteration:
//
//	total ← input;  Δ ← input
//	repeat: Δ ← (Δ ∘ body) \ total;  total ← total ∪ Δ
//	until Δ = ∅
//
// The body operator is drained once into an adjacency table; each
// iteration extends the delta frontier through it, deduplicating
// against the accumulated relation, so evaluation costs
// O(iterations · frontier · degree) instead of the O(n(G) · disjuncts)
// of bounded star expansion. Pairs are emitted as they are discovered
// (the output is duplicate-free but carries no order). With an
// IdentityScan input this enumerates the full star relation, identity
// pairs included.
type Closure struct {
	input Operator
	body  Operator

	adj      map[graph.NodeID][]graph.NodeID
	total    pairSet
	delta    []Pair // frontier produced by the previous iteration
	next     []Pair // frontier being produced by the current iteration
	di       int    // expansion cursor into delta
	out      []Pair // pending emissions
	outPos   int
	inputIn  input
	done     bool
	ctx      context.Context
	steps    int // fixpoint steps since the last cancellation check
	iters    int
	rows     int
	batches  int
	emitSize int
}

func (c *Closure) setContext(ctx context.Context) { c.ctx = ctx }

// NewClosure returns a fixpoint closure of body applied to input with
// default-size buffers.
func NewClosure(input, body Operator) *Closure {
	return NewClosureSized(input, body, DefaultBatchSize)
}

// NewClosureSized returns a fixpoint closure whose input pulls and
// emission chunks move batchSize pairs at a time.
func NewClosureSized(input, body Operator, batchSize int) *Closure {
	if batchSize < 1 {
		batchSize = 1
	}
	return &Closure{
		input:    input,
		body:     body,
		inputIn:  newInput(input, batchSize),
		emitSize: batchSize,
	}
}

func (c *Closure) children() []Operator { return []Operator{c.input, c.body} }

// materializeBody drains the body operator into the adjacency table
// keyed on source: one fixpoint step maps a frontier pair (s,t) to
// (s,u) for every u ∈ adj[t].
func (c *Closure) materializeBody() {
	c.adj = map[graph.NodeID][]graph.NodeID{}
	buf := make([]Pair, c.emitSize)
	for {
		n := c.body.NextBatch(buf)
		if n == 0 {
			return
		}
		for _, pr := range buf[:n] {
			c.adj[pr.Src] = append(c.adj[pr.Src], pr.Dst)
		}
	}
}

// discover admits pr if unseen: it joins the accumulated relation, the
// next frontier, and the pending output.
func (c *Closure) discover(pr Pair) {
	if !c.total.add(pr) {
		return
	}
	c.next = append(c.next, pr)
	c.out = append(c.out, pr)
}

// step performs one unit of fixpoint work, appending discoveries to the
// pending output. It reports false when the fixpoint is complete.
func (c *Closure) step() bool {
	// Phase 1: absorb the input relation as iteration zero's frontier.
	if !c.inputIn.done {
		if c.inputIn.fill() {
			for c.inputIn.pos < c.inputIn.n {
				c.discover(c.inputIn.buf[c.inputIn.pos])
				c.inputIn.pos++
			}
			return true
		}
		c.delta, c.next = c.next, nil
		c.di = 0
		if len(c.delta) > 0 {
			c.materializeBody()
		}
	}
	// Phase 2: expand the current frontier one pair at a time.
	for c.di >= len(c.delta) {
		if len(c.next) == 0 {
			return false // empty delta: fixpoint reached
		}
		c.delta, c.next = c.next, c.delta[:0]
		c.di = 0
		c.iters++
	}
	pr := c.delta[c.di]
	c.di++
	for _, u := range c.adj[pr.Dst] {
		c.discover(Pair{Src: pr.Src, Dst: u})
	}
	return true
}

// NextBatch implements Operator.
func (c *Closure) NextBatch(buf []Pair) int {
	if len(buf) == 0 || cancelled(c.ctx) {
		return 0
	}
	n := 0
	for n < len(buf) {
		if c.outPos < len(c.out) {
			m := copy(buf[n:], c.out[c.outPos:])
			n += m
			c.outPos += m
			continue
		}
		c.out = c.out[:0]
		c.outPos = 0
		if c.done {
			break
		}
		// Duplicate-heavy fixpoints can run many steps without a single
		// emission, so the batch boundary alone is not a reliable
		// cancellation point — re-check the context every 256 steps.
		c.steps++
		if c.steps&255 == 0 && cancelled(c.ctx) {
			break
		}
		if !c.step() {
			c.done = true
		}
	}
	c.rows += n
	if n > 0 {
		c.batches++
	}
	return n
}

// Iterations returns the number of completed fixpoint iterations beyond
// the input absorption (0 until evaluation starts).
func (c *Closure) Iterations() int { return c.iters }

// Rows implements Operator.
func (c *Closure) Rows() int { return c.rows }

// Batches implements Operator.
func (c *Closure) Batches() int { return c.batches }

// Name implements Operator.
func (c *Closure) Name() string { return "closure" }

// StreamClosure computes the same relation as Closure —
// input ∘ body* — output-sensitively: instead of accumulating every
// discovered pair in one seen-set (O(output) memory, quadratic in the
// graph for dense closures), it groups the input pairs by source and
// runs one per-source BFS over the materialized body adjacency, emitting
// (source, reached) pairs batch-at-a-time straight from the BFS queue.
// A visited array with epoch stamping (no per-source clearing) makes
// each BFS O(reached + edges touched), so peak memory is
// O(input + body + n(G) + batch) — bounded by the graph, never by the
// output. The output is duplicate-free (each source's reach set is
// enumerated once, sources are distinct groups) but carries no order.
type StreamClosure struct {
	input Operator
	body  Operator

	adj     map[graph.NodeID][]graph.NodeID
	seeds   []Pair // input pairs sorted by (src, dst)
	si      int    // cursor: start of the next source group
	started bool
	done    bool

	visited []uint32 // node -> epoch of the BFS that last reached it
	epoch   uint32
	queue   []graph.NodeID
	qi      int // emission/expansion cursor into queue
	curSrc  graph.NodeID

	ctx     context.Context
	sources int
	rows    int
	batches int
}

func (c *StreamClosure) setContext(ctx context.Context) { c.ctx = ctx }

// NewStreamClosure returns a streaming closure of body applied to input
// over a graph of numNodes nodes.
func NewStreamClosure(input, body Operator, numNodes int) *StreamClosure {
	// epoch 0 means "no BFS has stamped visited yet"; spelled out for the
	// epochkey invariant check.
	return &StreamClosure{input: input, body: body, visited: make([]uint32, numNodes), epoch: 0}
}

func (c *StreamClosure) children() []Operator { return []Operator{c.input, c.body} }

// start drains the input into source-grouped seeds and the body into the
// adjacency table.
func (c *StreamClosure) start() {
	buf := make([]Pair, DefaultBatchSize)
	for {
		n := c.input.NextBatch(buf)
		if n == 0 {
			break
		}
		c.seeds = append(c.seeds, buf[:n]...)
	}
	sort.Slice(c.seeds, func(i, j int) bool {
		if c.seeds[i].Src != c.seeds[j].Src {
			return c.seeds[i].Src < c.seeds[j].Src
		}
		return c.seeds[i].Dst < c.seeds[j].Dst
	})
	if len(c.seeds) > 0 {
		c.adj = map[graph.NodeID][]graph.NodeID{}
		for {
			n := c.body.NextBatch(buf)
			if n == 0 {
				break
			}
			for _, pr := range buf[:n] {
				c.adj[pr.Src] = append(c.adj[pr.Src], pr.Dst)
			}
		}
	}
	c.started = true
}

// nextSource seeds the BFS of the next source group, reporting false
// when every group is exhausted.
func (c *StreamClosure) nextSource() bool {
	if c.si >= len(c.seeds) {
		return false
	}
	c.curSrc = c.seeds[c.si].Src
	c.epoch++
	c.queue = c.queue[:0]
	c.qi = 0
	for ; c.si < len(c.seeds) && c.seeds[c.si].Src == c.curSrc; c.si++ {
		t := c.seeds[c.si].Dst
		if int(t) < len(c.visited) && c.visited[t] != c.epoch {
			c.visited[t] = c.epoch
			c.queue = append(c.queue, t)
		}
	}
	c.sources++
	return true
}

// NextBatch implements Operator.
func (c *StreamClosure) NextBatch(buf []Pair) int {
	if len(buf) == 0 || cancelled(c.ctx) {
		return 0
	}
	if !c.started {
		c.start()
	}
	n := 0
	for n < len(buf) {
		if c.qi >= len(c.queue) {
			if c.done || !c.nextSource() {
				c.done = true
				break
			}
			continue
		}
		u := c.queue[c.qi]
		c.qi++
		buf[n] = Pair{Src: c.curSrc, Dst: u}
		n++
		for _, v := range c.adj[u] {
			if int(v) < len(c.visited) && c.visited[v] != c.epoch {
				c.visited[v] = c.epoch
				c.queue = append(c.queue, v)
			}
		}
	}
	c.rows += n
	if n > 0 {
		c.batches++
	}
	return n
}

// Sources returns the number of per-source BFS traversals completed or
// in progress.
func (c *StreamClosure) Sources() int { return c.sources }

// Rows implements Operator.
func (c *StreamClosure) Rows() int { return c.rows }

// Batches implements Operator.
func (c *StreamClosure) Batches() int { return c.batches }

// Name implements Operator.
func (c *StreamClosure) Name() string { return "closure-stream" }

// ReachScan streams the restricted closure (ℓ1|…|ℓm)* from a
// reachability index: SCC condensation plus descendant bitsets make
// every pair an O(1) bitset probe, and enumeration is linear in the
// output. Output is grouped by component pair, not sorted.
type ReachScan struct {
	it      *reachability.PairIterator
	ctx     context.Context
	rows    int
	batches int
}

func (s *ReachScan) setContext(ctx context.Context) { s.ctx = ctx }

// NewReachScan returns a scan over the index's closure relation.
func NewReachScan(ix *reachability.Index) *ReachScan {
	return &ReachScan{it: ix.Iter()}
}

// NextBatch implements Operator.
func (s *ReachScan) NextBatch(buf []Pair) int {
	if len(buf) == 0 || cancelled(s.ctx) {
		return 0
	}
	n := s.it.Next(buf)
	s.rows += n
	if n > 0 {
		s.batches++
	}
	return n
}

// Rows implements Operator.
func (s *ReachScan) Rows() int { return s.rows }

// Batches implements Operator.
func (s *ReachScan) Batches() int { return s.batches }

// Name implements Operator.
func (s *ReachScan) Name() string { return "reach-scan" }

// buildClosure translates a Closure plan node: a nil input becomes the
// identity scan (pure star), and the body union is wrapped in a
// Distinct so repeated body pairs are materialized once. streamed
// selects the output-sensitive per-source BFS operator over the
// pair-materializing fixpoint.
func buildClosure(input Operator, body []Operator, batchSize int, streamed bool, numNodes int, ctx context.Context) Operator {
	var b Operator
	if len(body) == 1 {
		b = WithContext(NewDistinctSized(body[0], batchSize), ctx)
	} else {
		b = WithContext(NewUnionDistinctSized(body, batchSize), ctx)
	}
	if streamed {
		return WithContext(NewStreamClosure(input, b, numNodes), ctx)
	}
	return WithContext(NewClosureSized(input, b, batchSize), ctx)
}

var errNoReachProvider = fmt.Errorf("exec: plan contains a reach-scan but BuildOptions.Reach is nil")
