// This file implements source-partitioned sharding of the path index:
// a Partitioner assigns every source node to one of N shards, and a
// ShardedStorage owns N per-shard Storage values — each holding exactly
// the sub-runs of every label-path relation whose packed src falls in
// the shard — behind the ordinary Storage/Pinner interfaces.
//
// The invariant that makes this work is the same one behind prefix
// lookups: relations are sorted by (src, dst), so restricting a run to a
// set of sources yields a sub-run that is still sorted and still
// disjoint from every other shard's sub-run. Per-source lookups (a
// cursor's Seek and SrcRun, and so the bound scans and probe joins of
// single-source plans) route to the single owning shard; whole-relation
// reads (Relation, and a cursor read past a source) merge the per-shard
// runs back together. The executor needs no global order and avoids
// that: it concatenates the per-shard scans, a stream grouped by source,
// which is all its joins need.
//
// Sharding is an execution-layout choice, not a semantic one: a
// ShardedStorage answers every Storage query identically to the
// unsharded index it was split from. Updates preserve the partitioning —
// a Levels stack over a sharded base splits each tier by the same
// partitioner for its shard view, and a compaction re-partitions the
// folded index — so the shard assignment of a node never changes for the
// lifetime of a database.

package pathindex

import (
	"fmt"
	"io"
	"time"

	"repro/internal/graph"
)

// Partitioner assigns source nodes to shards. Implementations must be
// deterministic pure functions of the node id, stable across processes
// and hosts: the assignment is baked into the on-disk layout and must
// hold for nodes that did not exist when the index was built (graph
// updates add nodes).
type Partitioner interface {
	// NumShards returns the shard count N (≥ 1).
	NumShards() int
	// ShardOf returns the owning shard of src, in [0, NumShards()).
	ShardOf(src graph.NodeID) int
}

// HashPartitioner assigns sources by a stable multiplicative hash of the
// node id — uniform regardless of id layout, at the cost of turning
// whole-relation reads into N-way interleaved merges.
type HashPartitioner struct{ n int }

// NewHashPartitioner returns a hash partitioner over n shards.
func NewHashPartitioner(n int) HashPartitioner {
	if n < 1 {
		n = 1
	}
	return HashPartitioner{n: n}
}

// NumShards returns the shard count.
func (h HashPartitioner) NumShards() int { return h.n }

// ShardOf hashes src with Knuth's multiplicative constant. Pure integer
// arithmetic: the same id maps to the same shard on every host.
func (h HashPartitioner) ShardOf(src graph.NodeID) int {
	return int(uint64(src) * 2654435761 % uint64(h.n))
}

// ShardedStorage serves N per-shard Storage values as one Storage. The
// directory is aggregated over the parts; per-path counts sum exactly
// because shard runs are disjoint by construction.
//
// Like every Storage it is immutable after construction and safe for
// concurrent readers; Pin/Unpin/Close fan out to every part.
type ShardedStorage struct {
	directory
	parts []Storage
	part  Partitioner
}

// BuildSharded builds I_{G,k} partitioned by part: the full index is
// built once (the derived-inverse optimization needs the unpartitioned
// relations), then split into per-shard indexes.
func BuildSharded(g *graph.Graph, k int, opts BuildOptions, part Partitioner) (*ShardedStorage, error) {
	full, err := Build(g, k, opts)
	if err != nil {
		return nil, err
	}
	return ShardIndex(full, part)
}

// splitRun partitions the sorted run rel by source shard, in one pass.
// The parts are freshly allocated (never alias rel), sorted, and
// pairwise source-disjoint.
func splitRun(rel []Packed, part Partitioner) [][]Packed {
	out := make([][]Packed, part.NumShards())
	for _, pr := range rel {
		sh := part.ShardOf(pr.Src())
		out[sh] = append(out[sh], pr)
	}
	return out
}

// ShardIndex splits a built index into per-shard heap indexes under
// part. The input index is not modified; its runs are copied into the
// shards so the original can be released.
func ShardIndex(full *Index, part Partitioner) (*ShardedStorage, error) {
	n := part.NumShards()
	if n < 1 {
		return nil, fmt.Errorf("pathindex: shard count must be >= 1, got %d", n)
	}
	start := time.Now()
	parts := make([]Storage, n)
	for i, ix := range splitIndex(full, part) {
		parts[i] = ix
	}
	s := newSharded(parts, part)
	// The split is exact, so the full build's global statistics carry
	// over; only the wall clock grows by the split itself.
	s.stats.PathsKCount = full.stats.PathsKCount
	s.stats.DerivedPaths = full.stats.DerivedPaths
	s.stats.ComposedPairs = full.stats.ComposedPairs
	s.stats.Duration = full.stats.Duration + time.Since(start)
	return s, nil
}

// splitIndex partitions every run of full by source shard into one heap
// index per shard. The shards share full's (immutable) path table, so a
// shard holds an empty run for each path whose sources it does not own.
func splitIndex(full *Index, part Partitioner) []*Index {
	shards := make([]*Index, part.NumShards())
	for i := range shards {
		shards[i] = &Index{directory: directory{g: full.g, k: full.k, paths: full.paths, ids: full.ids}}
	}
	for _, rel := range full.relations {
		for i, sub := range splitRun(rel, part) {
			ix := shards[i]
			ix.relations = append(ix.relations, sub)
			ix.counts = append(ix.counts, len(sub))
			ix.stats.Entries += len(sub)
			if len(sub) > 0 {
				ix.stats.LabelPaths++
			}
		}
	}
	return shards
}

// NewSharded assembles a ShardedStorage from already-opened per-shard
// parts (the open-from-disk path). Parts must share the graph and k and
// hold src-disjoint runs under part's assignment.
func NewSharded(parts []Storage, part Partitioner) (*ShardedStorage, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("pathindex: sharded storage needs at least one part")
	}
	if part.NumShards() != len(parts) {
		return nil, fmt.Errorf("pathindex: partitioner has %d shards but %d parts were given", part.NumShards(), len(parts))
	}
	for i, p := range parts {
		if p.K() != parts[0].K() {
			return nil, fmt.Errorf("pathindex: shard %d has k=%d, shard 0 has k=%d", i, p.K(), parts[0].K())
		}
	}
	return newSharded(parts, part), nil
}

// newSharded aggregates the per-part directories: the union of paths
// with summed counts. Shard runs are disjoint, so the sums are exact.
func newSharded(parts []Storage, part Partitioner) *ShardedStorage {
	s := &ShardedStorage{
		directory: directory{g: parts[0].Graph(), k: parts[0].K(), ids: map[string]uint32{}},
		parts:     parts,
		part:      part,
	}
	for _, sp := range parts {
		sp.AllPaths(func(_ uint32, p Path, count int) {
			id, ok := s.ids[p.Key()]
			if !ok {
				id = s.add(p, 0)
			}
			s.counts[id] += count
		})
	}
	for _, c := range s.counts {
		s.stats.Entries += c
		if c > 0 {
			s.stats.LabelPaths++
		}
	}
	return s
}

// NumShards returns the shard count.
func (s *ShardedStorage) NumShards() int { return len(s.parts) }

// Shard returns shard i's Storage.
func (s *ShardedStorage) Shard(i int) Storage { return s.parts[i] }

// ShardOf returns the shard owning source src.
func (s *ShardedStorage) ShardOf(src graph.NodeID) int { return s.part.ShardOf(src) }

// Partitioner returns the partitioning function.
func (s *ShardedStorage) Partitioner() Partitioner { return s.part }

// Relation materializes p's full relation by k-way merging the shard
// runs. Executor scans avoid this through per-shard iterators; Relation
// exists for the rare whole-relation consumers (compaction, tests).
func (s *ShardedStorage) Relation(p Path) []Packed {
	runs := make([][]Packed, 0, len(s.parts))
	for _, part := range s.parts {
		if r := part.Relation(p); len(r) > 0 {
			runs = append(runs, r)
		}
	}
	return kwayMergeRuns(runs)
}

// kwayMergeRuns merges sorted, pairwise-disjoint runs into one sorted
// run. Zero-copy when at most one run is non-empty.
func kwayMergeRuns(runs [][]Packed) []Packed {
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]Packed, 0, total)
	heads := make([]int, len(runs))
	for len(out) < total {
		best := -1
		for i, r := range runs {
			if heads[i] >= len(r) {
				continue
			}
			if best < 0 || r[heads[i]] < runs[best][heads[best]] {
				best = i
			}
		}
		out = append(out, runs[best][heads[best]])
		heads[best]++
	}
	return out
}

// Blocks returns a cursor over p's relation in global order, built from
// one cursor per shard (see shardCursor). The executor scans the shards
// one after another instead.
func (s *ShardedStorage) Blocks(p Path) *BlockIterator {
	c := &shardCursor{
		part:  s.part,
		parts: make([]*BlockIterator, len(s.parts)),
		heads: make([][]Packed, len(s.parts)),
		stale: make([]bool, len(s.parts)),
		owner: -1,
		size:  DefaultBlockSize,
	}
	for i, part := range s.parts {
		c.parts[i] = part.Blocks(p)
	}
	return &BlockIterator{size: DefaultBlockSize, comp: c}
}

// SrcRange implements Storage: the sub-run of the shard owning src.
func (s *ShardedStorage) SrcRange(p Path, src graph.NodeID) []Packed {
	return s.Blocks(p).SrcRun(src)
}

// shardCursor is the cursor of a sharded path. A seek or SrcRun is
// routed to the cursor of the shard owning its source, which alone holds
// that source's pairs, so a bound lookup touches one shard. Only a read
// that runs past that source needs the other shards: each is then sought
// to the same key and the shards' heads are merged.
type shardCursor struct {
	part  Partitioner
	parts []*BlockIterator
	heads [][]Packed // per shard: unconsumed rest of its current block
	stale []bool     // per shard: must be sought to key before its head is read
	key   Packed     // the last seek's key
	owner int        // the shard serving key's source, or -1 once merging
	size  int
	buf   []Packed
}

// head returns shard i's unconsumed pairs, nil when it is spent.
func (c *shardCursor) head(i int) []Packed {
	if c.stale[i] {
		c.parts[i].Seek(c.key)
		c.stale[i], c.heads[i] = false, nil
	}
	if len(c.heads[i]) == 0 {
		c.heads[i] = c.parts[i].Next()
	}
	return c.heads[i]
}

// next serves the owner's pairs of the sought source while there are
// any, then merges the shards' heads into blocks of up to size pairs
// (at most DefaultBlockSize).
func (c *shardCursor) next() []Packed {
	if o := c.owner; o >= 0 {
		src := c.key.Src()
		if h := c.head(o); len(h) > 0 && h[0].Src() == src {
			k := min(srcEnd(h, src), c.size)
			c.heads[o] = h[k:]
			return h[:k:k]
		}
		c.owner = -1
	}
	if c.buf == nil {
		c.buf = make([]Packed, min(c.size, DefaultBlockSize))
	}
	n := 0
	for n < len(c.buf) {
		best, bound, bounded := -1, Packed(0), false
		for i := range c.parts {
			h := c.head(i)
			switch {
			case len(h) == 0:
			case best < 0:
				best = i
			case h[0] < c.heads[best][0]:
				bound, bounded = c.heads[best][0], true
				best = i
			case !bounded || h[0] < bound:
				bound, bounded = h[0], true
			}
		}
		if best < 0 {
			break
		}
		h := c.heads[best]
		k := len(h)
		if bounded {
			k = gallop(h, bound)
		}
		k = copy(c.buf[n:], h[:k])
		c.heads[best] = h[k:]
		n += k
	}
	if n == 0 {
		return nil
	}
	return c.buf[:n]
}

func (c *shardCursor) seek(key Packed) {
	c.key, c.owner = key, c.part.ShardOf(key.Src())
	for i := range c.stale {
		c.stale[i] = true
	}
}

func (c *shardCursor) srcRun(src graph.NodeID) []Packed {
	c.seek(Pack(src, 0))
	o := c.owner
	c.stale[o], c.heads[o] = false, nil
	return c.parts[o].SrcRun(src)
}

func (c *shardCursor) err() error {
	for _, p := range c.parts {
		if err := p.Err(); err != nil {
			return err
		}
	}
	return nil
}

func (c *shardCursor) sized(n int) {
	c.size, c.buf = n, nil
	for _, p := range c.parts {
		p.Sized(n)
	}
}

// Pin acquires a reader pin on every part. On failure the already-pinned
// prefix is released, so a Pin error leaves no pins held.
func (s *ShardedStorage) Pin() error {
	for i, p := range s.parts {
		if err := p.Pin(); err != nil {
			for _, q := range s.parts[:i] {
				q.Unpin()
			}
			return err
		}
	}
	return nil
}

// Unpin releases the pins taken by a successful Pin.
func (s *ShardedStorage) Unpin() {
	for _, p := range s.parts {
		p.Unpin()
	}
}

// Close closes every part that holds resources, waiting for each part's
// readers to drain (per-part pin gates). The first error is returned;
// remaining parts are still closed.
func (s *ShardedStorage) Close() error {
	var first error
	for _, p := range s.parts {
		if c, ok := p.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// decodeStatsPart mirrors the optional DecodeStats surface of
// compressed parts.
type decodeStatsPart interface{ DecodeStats() (blocks, bytes int64) }

// DecodeStats sums the per-part block-decode counters.
func (s *ShardedStorage) DecodeStats() (blocks, bytes int64) {
	for _, p := range s.parts {
		if ds, ok := p.(decodeStatsPart); ok {
			b, by := ds.DecodeStats()
			blocks += b
			bytes += by
		}
	}
	return blocks, bytes
}

// fileBytesPart mirrors the optional FileBytes surface of file-backed
// parts.
type fileBytesPart interface{ FileBytes() int }

// FileBytes sums the per-part on-disk footprints.
func (s *ShardedStorage) FileBytes() int {
	total := 0
	for _, p := range s.parts {
		if fb, ok := p.(fileBytesPart); ok {
			total += fb.FileBytes()
		}
	}
	return total
}

var (
	_ Storage   = (*ShardedStorage)(nil)
	_ Sharded   = (*ShardedStorage)(nil)
	_ io.Closer = (*ShardedStorage)(nil)
)
