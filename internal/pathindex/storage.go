package pathindex

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
)

// ErrClosed is returned by Pin once Close has begun: the storage's file
// image is (or is about to be) unmapped and no new readers may start.
var ErrClosed = errors.New("pathindex: index closed")

// ErrGraphMismatch marks an index that refers to nodes the graph it is
// being attached to does not have: the index was built from a different
// graph (a generated graph against its re-interned edge list, say, where
// isolated nodes vanish and identifiers shift). The open paths wrap it
// when a run's last source lies outside the node table, and name
// resolution returns it instead of indexing past that table.
var ErrGraphMismatch = errors.New("pathindex: index does not match the graph")

// Pinner is the reader-lifetime half of Storage. A reader that will
// touch relation memory must hold a pin for the duration of the access:
// over file-backed storage (*CompressedIndex, and a *Levels or
// *ShardedStorage over one) Pin fails with ErrClosed once Close has
// begun, and Close blocks until every pin is released, so an unmap can
// never pull pages out from under an in-flight scan.
// Heap-backed storage pins for free.
type Pinner interface {
	Pin() error
	Unpin()
}

// pinGate is the shared reader-pin/close-drain protocol behind Pinner:
// pin registers a reader (failing once shutdown has begun), unpin
// releases one, and shutdown marks the gate closing, waits for the pin
// count to drain to zero, and runs its release callback under the lock
// exactly once per resource (the callback steals the owner's data
// pointer, so concurrent shutdowns all wait but only one releases). The
// zero value is ready to use.
type pinGate struct {
	mu      sync.Mutex
	drained sync.Cond // signaled when pins reaches 0 while closing
	pins    int
	closing bool
}

func (g *pinGate) pin() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closing {
		return ErrClosed
	}
	g.pins++
	return nil
}

func (g *pinGate) unpin() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.pins <= 0 {
		panic("pathindex: Unpin without matching Pin")
	}
	g.pins--
	if g.pins == 0 && g.closing {
		g.drained.Broadcast()
	}
}

func (g *pinGate) shutdown(release func()) {
	g.mu.Lock()
	if g.drained.L == nil {
		g.drained.L = &g.mu
	}
	g.closing = true
	for g.pins > 0 {
		g.drained.Wait()
	}
	release()
	g.mu.Unlock()
}

// Storage is the read side of a k-path index: what the engine, the
// executor, the histogram, and BuildDelta need to plan and evaluate
// queries and to maintain the index. Four representations exist:
//
//   - *Index — heap-backed packed runs, built in memory or decoded from
//     a saved file by Load. An update tier's delta is one too.
//   - *CompressedIndex — a format-v4 file of block-compressed runs,
//     mmap-backed. Only the per-run block directories are decoded at
//     open; relation payload is delta+varint decoded on read, inside
//     the run's cursor, only in the blocks it reaches. Its Relation and
//     SrcRange therefore return freshly decoded slices rather than
//     aliases of storage memory.
//   - *ShardedStorage — N of the above, partitioned by source node.
//   - *Levels — a read-only base (any of the above) under a stack of
//     in-memory update tiers, each a delta *Index; the one update
//     overlay. Its cursors merge the tier runs into the base's.
//
// All four embed one path directory, which supplies the path table and
// every count (see directory), and add their own run access: Relation
// and Blocks. Blocks returns the run's cursor (BlockIterator), the one
// way the executor and BuildDelta read a run, whatever the layout:
// whole-run scans call Next, and the paper's ⟨p, a⟩ and ⟨p, a, b⟩
// lookups are a SrcRun or a Seek on it, which a reader making many
// lookups keeps for all of them. SrcRange is one SrcRun on a fresh
// cursor.
// Relations are handed out as sorted []Packed runs that must not be
// mutated; blocks of a file-backed run are decoded from the mapping, so
// readers hold a pin across any access.
//
// Implementations are immutable after construction, so a Storage may be
// shared by any number of concurrent readers.
type Storage interface {
	// K returns the index locality parameter.
	K() int
	// Graph returns the indexed graph.
	Graph() *graph.Graph
	// Stats returns build statistics. For storage opened from disk the
	// Duration field is zero (nothing was built).
	Stats() BuildStats
	// NumEntries returns the total number of ⟨path,src,dst⟩ entries.
	NumEntries() int
	// PathsKCount returns |paths_k(G)|, the selectivity denominator.
	PathsKCount() int
	// AllPaths invokes fn for every indexed label path in id order.
	AllPaths(fn func(id uint32, p Path, count int))
	// Relation returns p(G) as one sorted (src,dst) run.
	Relation(p Path) []Packed
	// Blocks returns a cursor over p(G) that yields blocks of
	// DefaultBlockSize (zero-copy for uncompressed storage,
	// decode-on-read for *CompressedIndex, merge-on-read for *Levels)
	// and seeks.
	Blocks(p Path) *BlockIterator
	// SrcRange returns the sub-run of p(G) with Src == src: one SrcRun
	// on a fresh cursor. Readers that look up many sources keep one
	// cursor and call SrcRun on it instead.
	SrcRange(p Path, src graph.NodeID) []Packed
	Pinner
}

// directory is the path directory every representation embeds: the
// graph, the locality parameter, the path table with its per-path pair
// counts, and the build statistics. It answers everything that needs no
// run access, once, for all of them. Path ids are dense and follow the
// order paths were added.
type directory struct {
	g      *graph.Graph
	k      int
	paths  []Path            // path id -> path
	ids    map[string]uint32 // Path.Key() -> path id
	counts []int             // path id -> |p(G)|
	stats  BuildStats
}

// add appends p with its pair count and returns the new path id.
func (d *directory) add(p Path, count int) uint32 {
	id := uint32(len(d.paths))
	d.paths = append(d.paths, p)
	d.ids[p.Key()] = id
	d.counts = append(d.counts, count)
	return id
}

// K returns the index locality parameter.
func (d *directory) K() int { return d.k }

// Graph returns the indexed graph.
func (d *directory) Graph() *graph.Graph { return d.g }

// Stats returns build statistics.
func (d *directory) Stats() BuildStats { return d.stats }

// NumEntries returns the total number of ⟨path,src,dst⟩ entries.
func (d *directory) NumEntries() int { return d.stats.Entries }

// NumLabelPaths returns the number of label paths in the directory.
func (d *directory) NumLabelPaths() int { return len(d.paths) }

// PathsKCount returns |paths_k(G)|, the selectivity denominator.
func (d *directory) PathsKCount() int { return d.stats.PathsKCount }

// PathID returns the identifier of p, if p is indexed.
func (d *directory) PathID(p Path) (uint32, bool) {
	id, ok := d.ids[p.Key()]
	return id, ok
}

// PathByID returns the label path with the given identifier.
func (d *directory) PathByID(id uint32) Path { return d.paths[id] }

// Count returns |p(G)|. Unknown paths (including paths longer than k)
// have count 0; use len(p) <= K() to distinguish "empty" from "not
// indexed".
func (d *directory) Count(p Path) int {
	if id, ok := d.ids[p.Key()]; ok {
		return d.counts[id]
	}
	return 0
}

// CountByID returns |p(G)| for a known path id.
func (d *directory) CountByID(id uint32) int { return d.counts[id] }

// AllPaths invokes fn for every indexed label path in id order with its
// pair count. It walks only the directory, so the histogram build over a
// compressed index decodes nothing.
func (d *directory) AllPaths(fn func(id uint32, p Path, count int)) {
	for id, p := range d.paths {
		fn(uint32(id), p, d.counts[id])
	}
}

// checkNodeRange is the open-time graph check: last is the greatest pair
// of the run of p, so its source is the run's greatest. Every node of
// every relation is a source of some length-1 run (each label is indexed
// in both directions), so the loaders call it for those runs only.
func (d *directory) checkNodeRange(p Path, last Packed) error {
	if n := d.g.NumNodes(); int(last.Src()) >= n {
		return fmt.Errorf("%w: path %v relates node %d, the graph has %d nodes", ErrGraphMismatch, p, last.Src(), n)
	}
	return nil
}

// Materialize returns s as one unsharded heap index: s itself when it
// already is one, otherwise a copy of every relation — tiers folded,
// shards merged, compressed runs decoded and verified. It backs the
// single-file writers for storage that has no run array of its own.
func Materialize(s Storage) (*Index, error) {
	switch v := s.(type) {
	case *Index:
		return v, nil
	case *CompressedIndex:
		return v.Materialize()
	}
	ix := newIndex(s.Graph(), s.K())
	var short error
	s.AllPaths(func(_ uint32, p Path, count int) {
		rel := slices.Clone(s.Relation(p))
		if len(rel) != count && short == nil {
			short = corrupt("path %v reads %d pairs, directory claims %d", p, len(rel), count)
		}
		ix.addRun(p, rel)
	})
	ix.stats.PathsKCount = s.PathsKCount()
	ix.stats.Duration = s.Stats().Duration
	return ix, short
}

// Sharded is the shard view of source-partitioned storage: N per-shard
// Storages, each holding the sub-runs whose sources the partitioner
// assigns to it. *ShardedStorage provides it, and so does a *Levels
// stacked over one; AsSharded tells the two cases of *Levels apart.
type Sharded interface {
	// Partitioner returns the source→shard assignment and the shard
	// count (nil for a *Levels over an unsharded base).
	Partitioner() Partitioner
	// Shard returns shard i's Storage.
	Shard(i int) Storage
}

// AsSharded returns the shard view of s when s is partitioned.
func AsSharded(s Storage) (Sharded, bool) {
	sh, ok := s.(Sharded)
	if !ok || sh.Partitioner() == nil {
		return nil, false
	}
	return sh, true
}
