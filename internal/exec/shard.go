// This file implements the two operators that read several streams as
// one. Over sharded storage a segment scan is a ConcatScan of the
// per-shard sub-scans, run once: the plan is the one unsharded storage
// runs, and a query over shards runs on one goroutine. With
// BuildOptions.Workers > 1, Build puts the disjunct trees under one
// Gather with that many senders, below the root union that deduplicates
// them.

package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// ConcatScan streams one segment's relation over sharded storage: the
// per-shard sub-scans one after another, synchronously. Shard runs are
// source-disjoint and each is sorted, so the stream is a set grouped by
// source, though not in ascending source order across shards: a group
// join takes it as its left input, a by-source union does not.
type ConcatScan struct {
	opBase
	kids []Operator
	i    int
}

func (c *ConcatScan) children() []Operator { return c.kids }

// NextBatch implements Operator.
func (c *ConcatScan) NextBatch(buf []Pair) int {
	for c.i < len(c.kids) && !cancelled(c.ctx) {
		if n := c.kids[c.i].NextBatch(buf); n > 0 {
			return c.emit(n)
		}
		c.i++
	}
	return 0
}

// Name implements Operator.
func (c *ConcatScan) Name() string { return "concat-scan" }

// senderBatch is one filled sender buffer, tagged with the sender whose
// free list it returns to.
type senderBatch struct {
	sender int
	pairs  []Pair
}

// Gather fans in operator streams concurrently and unordered: the
// disjunct trees of a plan run with BuildOptions.Workers. Each of its
// senders — goroutines, at most one per child — claims the next
// unclaimed child, drains it into whole batches on one shared channel,
// and claims the next, until none is left. Each sender owns two buffers
// that cycle through its free channel, so a started Gather allocates
// nothing per batch; the consumer copies each batch out and hands its
// buffer back. A Gather is a union: disjuncts overlap, so it passes
// duplicates through (see duplicateFree).
//
// Cancellation: senders stop at batch boundaries once ctx is done or the
// gather is quiesced. A Gather that returned 0 has no goroutines left;
// abandoning one mid-stream requires Quiesce (core's Prepared.run calls it),
// which stops the senders and waits for them, making the children safe
// to inspect for stats.
type Gather struct {
	opBase
	kids      []Operator
	senders   int
	batchSize int

	started  bool
	next     atomic.Int64 // index of the next unclaimed child
	out      chan senderBatch
	free     []chan []Pair
	cur      senderBatch
	pos      int
	live     int // senders that have not yet sent their end marker
	quit     chan struct{}
	quitOnce sync.Once
	wg       sync.WaitGroup
}

// NewGather returns a gather over children drained by up to senders
// goroutines (one per child when senders is 0 or exceeds the children).
// Senders honor ctx; batchSize bounds each transfer (minimum 1,
// DefaultBatchSize when 0).
func NewGather(kids []Operator, senders, batchSize int, ctx context.Context) *Gather {
	if senders < 1 || senders > len(kids) {
		senders = len(kids)
	}
	if batchSize < 1 {
		batchSize = DefaultBatchSize
	}
	return &Gather{opBase: opBase{ctx: ctx}, kids: kids, senders: senders, batchSize: batchSize, quit: make(chan struct{})}
}

func (g *Gather) children() []Operator { return g.kids }

func (g *Gather) start() {
	g.started = true
	// Each sender owns two buffers, its end marker rides in one of them,
	// so out has room for every batch in flight and neither a sender's
	// send nor the consumer's return of a buffer to free ever waits on
	// the other side.
	g.out = make(chan senderBatch, 2*g.senders)
	g.free = make([]chan []Pair, g.senders)
	g.live = g.senders
	for s := range g.free {
		g.free[s] = make(chan []Pair, 2)
		g.free[s] <- make([]Pair, g.batchSize)
		g.free[s] <- make([]Pair, g.batchSize)
		g.wg.Add(1)
		go g.drain(s)
	}
}

// claim hands out the next unclaimed child, nil once all are taken.
func (g *Gather) claim() Operator {
	if i := int(g.next.Add(1)) - 1; i < len(g.kids) {
		return g.kids[i]
	}
	return nil
}

// drain is sender s: it fills a free buffer from its current child and
// ships it, moving on to the next unclaimed child whenever one is
// exhausted. When no child is left it ships one empty batch, the end
// marker, and exits; it exits early once the gather is quiesced or ctx
// is done.
func (g *Gather) drain(s int) {
	defer g.wg.Done()
	var done <-chan struct{}
	if g.ctx != nil {
		done = g.ctx.Done()
	}
	kid := g.claim()
	for {
		var buf []Pair
		select {
		case buf = <-g.free[s]:
		case <-g.quit:
			return
		case <-done:
			return
		}
		n := 0
		for kid != nil {
			if n = kid.NextBatch(buf); n > 0 {
				break
			}
			kid = g.claim()
		}
		select {
		case g.out <- senderBatch{sender: s, pairs: buf[:n]}:
		case <-g.quit:
			return
		case <-done:
			return
		}
		if n == 0 {
			return
		}
	}
}

// NextBatch implements Operator.
func (g *Gather) NextBatch(buf []Pair) int {
	if !g.started {
		g.start()
	}
	if cancelled(g.ctx) {
		g.Quiesce()
		return 0
	}
	var done <-chan struct{}
	if g.ctx != nil {
		done = g.ctx.Done()
	}
	n := 0
	for n < len(buf) {
		if g.pos < len(g.cur.pairs) {
			m := copy(buf[n:], g.cur.pairs[g.pos:])
			n += m
			g.pos += m
			continue
		}
		if g.cur.pairs != nil {
			g.free[g.cur.sender] <- g.cur.pairs[:cap(g.cur.pairs)]
			g.cur.pairs = nil
		}
		if g.live == 0 {
			break
		}
		var b senderBatch
		if n > 0 {
			// Holding pairs: return them rather than wait for more.
			select {
			case b = <-g.out:
			default:
				return g.emit(n)
			}
		} else {
			select {
			case b = <-g.out:
			case <-done:
				g.Quiesce()
				return 0
			}
		}
		if len(b.pairs) == 0 {
			g.live--
			continue
		}
		g.cur, g.pos = b, 0
	}
	if n == 0 {
		g.Quiesce()
		return 0
	}
	return g.emit(n)
}

// Quiesce stops the senders and waits for them to exit. Safe to call
// any number of times, before or after exhaustion; afterwards the
// children's counters are stable for CollectStats and NextBatch returns
// 0.
func (g *Gather) Quiesce() {
	if !g.started {
		return
	}
	g.quitOnce.Do(func() { close(g.quit) })
	g.wg.Wait()
	g.live, g.cur.pairs = 0, nil
}

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
