package pathindex

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Tier is one frozen update increment in a Levels stack: the delta
// index of one batch (BuildDelta), or of several adjacent batches folded
// together by tier merging, tagged with the inclusive WAL sequence range
// it covers and, once persisted, the name of its spill file. The runs
// and the pair count (the index's PathsKCount) are immutable; the spill
// marker is set at most once, after the v4 run file is durable, and is
// metadata only — serving never reads it.
type Tier struct {
	ix     *Index
	seqLo  uint64
	seqHi  uint64
	spill  atomic.Pointer[string]
	shards atomic.Pointer[[]*Tier] // shardTiers' cache
}

// NewTier wraps a delta index as a tier covering the given inclusive
// sequence range (lo == hi for a single batch; 0,0 for non-durable
// stacks that do not track sequence numbers). The index's PathsKCount,
// counted once by BuildDelta, is the tier's share of the stack's
// |paths_k|, which no later push, merge or recovery step recounts.
func NewTier(ix *Index, seqLo, seqHi uint64) *Tier {
	return &Tier{ix: ix, seqLo: seqLo, seqHi: seqHi}
}

// Entries returns the tier's total entry count.
func (t *Tier) Entries() int { return t.ix.NumEntries() }

// SeqLo returns the first WAL sequence number the tier covers.
func (t *Tier) SeqLo() uint64 { return t.seqLo }

// SeqHi returns the last WAL sequence number the tier covers.
func (t *Tier) SeqHi() uint64 { return t.seqHi }

// Spill returns the tier's spill file name, or "" while memory-only.
func (t *Tier) Spill() string {
	if p := t.spill.Load(); p != nil {
		return *p
	}
	return ""
}

// SetSpill records that the tier's runs are durable in the named file.
func (t *Tier) SetSpill(file string) { t.spill.Store(&file) }

// WriteSpill persists the tier's index as a format-v4 file
// (SaveAtomic), its pair count in the |paths_k| field. The caller
// records the spill in the WAL (and calls SetSpill) only after
// WriteSpill returns.
func (t *Tier) WriteSpill(path string) error { return t.ix.SaveAtomic(path) }

// NewSpilledTier reconstructs a tier from a heap-loaded spill index
// (recovery's shortcut past BuildDelta). The index must have been
// produced by WriteSpill for the same sequence range and loaded against
// the graph as of seqHi.
//
// The tier adopts the pair count WriteSpill stored in the file's
// |paths_k| field.
func NewSpilledTier(ix *Index, seqLo, seqHi uint64, file string) *Tier {
	t := NewTier(ix, seqLo, seqHi)
	t.SetSpill(file)
	return t
}

// shardTiers returns the tier restricted to each shard's sources under
// part — the per-shard tiers of a stack over a sharded base, split as
// ShardIndex splits a base. The split is computed on first use and
// cached: a tier lives in one lineage, whose partitioning never changes.
// Concurrent first calls may both compute, which is benign (identical
// results, last store wins). Shard tiers carry no pair count: only the
// global stack reports |paths_k|.
func (t *Tier) shardTiers(part Partitioner) []*Tier {
	if p := t.shards.Load(); p != nil {
		return *p
	}
	parts := splitIndex(t.ix, part)
	tiers := make([]*Tier, len(parts))
	for i, ix := range parts {
		tiers[i] = NewTier(ix, t.seqLo, t.seqHi)
	}
	t.shards.Store(&tiers)
	return tiers
}

// Levels serves a read-only base Storage plus an ordered stack of
// update tiers as one consistent Storage over the newest tier's graph —
// the index's one update overlay, LSM-style. A batch pushes one tier
// (PushTier), at a cost proportional to the batch; adjacent tiers are
// merged separately and incrementally (MergeOnce), and the whole stack
// folds back into a single immutable index through a bounded-step Fold.
//
// Each tier's runs are disjoint from the base and from every older tier
// (BuildDelta subtracts against the storage it extends), so per-path
// counts are sums and cross-tier merges need no deduplication. Reads
// see at most base + one merged tier run per path: the union of a
// path's tier runs is computed lazily on first access and cached, and
// Blocks merges it into the base's blocks as it scans, so any number of
// tiers costs a scan one extra run.
//
// The base may be sharded. The stack stays global — one tier list, one
// merge / spill / fold / checkpoint lifecycle — and offers the shard
// view the executor's scans concatenate (Sharded): Shard(i) is a Levels over
// the base's shard i whose tiers are this stack's tiers restricted to
// the sources shard i owns.
//
// Like every Storage, a Levels is immutable after construction (the
// lazy run and shard-view caches and the tier spill markers are the
// write-once exceptions) and safe for any number of concurrent readers.
// Pin/Unpin and Close delegate to the base.
type Levels struct {
	// The merged directory: ids below numBase alias the base ids;
	// tier-only paths (e.g. over new labels) follow in tier order.
	directory
	base     Storage
	tiers    []*Tier
	tierRuns [][][]Packed               // merged id -> non-empty tier runs, oldest first
	merged   []atomic.Pointer[[]Packed] // merged id -> lazily cached union of tierRuns
	numBase  int

	sharded   Sharded // the base's shard view; nil over an unsharded base
	shardOnce sync.Once
	shards    []*Levels
}

// NewLevels assembles a stack over base from an ordered tier list
// (oldest first). Every tier must have been built against base extended
// by the tiers before it, which is what makes the runs disjoint; the
// constructor checks the locality parameter and graph lineage, not
// disjointness itself.
//
// |paths_k| is the base's count extended by each tier's (pathsKAfter):
// O(T), reading no run. It depends only on the base and the batches the
// tiers hold, not on how they were merged or spilled.
func NewLevels(base Storage, tiers []*Tier) (*Levels, error) {
	g := base.Graph()
	pk := base.PathsKCount()
	dur := time.Duration(0)
	for i, t := range tiers {
		if err := checkTier(i, base.K(), g, t); err != nil {
			return nil, err
		}
		pk = pathsKAfter(pk, base, g, t)
		dur += t.ix.Stats().Duration
		g = t.ix.Graph()
	}
	ls := newLevels(base, tiers, g)
	ls.stats.PathsKCount = pk
	ls.stats.Duration = dur
	return ls, nil
}

// checkTier validates the i-th tier of a stack over a k-index against
// the graph of the layers below it.
func checkTier(i, k int, below *graph.Graph, t *Tier) error {
	if t.ix.K() != k {
		return fmt.Errorf("pathindex: tier %d has k=%d, base has k=%d", i, t.ix.K(), k)
	}
	if t.ix.Graph().NumNodes() < below.NumNodes() {
		return fmt.Errorf("pathindex: tier %d graph is smaller than its predecessor", i)
	}
	return nil
}

// pathsKAfter extends a stack's |paths_k| by one tier: the tier's pair
// count plus the identity pairs of the nodes it adds to the graph below
// it. Pairs a tier relates by a path that an older layer already relates
// them by under another path are counted again, so the value is an upper
// bound on the exact count; it only feeds selectivity estimates, where
// the slack is harmless. A base that skipped the count (0 with non-empty
// relations) keeps the stack's at 0.
func pathsKAfter(pk int, base Storage, below *graph.Graph, t *Tier) int {
	if pk == 0 && base.NumEntries() > 0 {
		return 0
	}
	return pk + t.ix.PathsKCount() + t.ix.Graph().NumNodes() - below.NumNodes()
}

// newLevels builds the merged directory and the per-path tier runs of a
// stack serving graph g; NewLevels adds the lineage checks and the
// |paths_k| bookkeeping a shard view does without.
func newLevels(base Storage, tiers []*Tier, g *graph.Graph) *Levels {
	ls := &Levels{
		directory: directory{g: g, k: base.K(), ids: map[string]uint32{}},
		base:      base,
		tiers:     tiers,
	}
	ls.sharded, _ = AsSharded(base)
	base.AllPaths(func(id uint32, p Path, count int) {
		if ls.add(p, count) != id {
			panic("pathindex: base AllPaths ids are not dense")
		}
	})
	ls.numBase = len(ls.paths)
	ls.tierRuns = make([][][]Packed, ls.numBase)
	ls.stats.Entries = base.NumEntries()
	for _, t := range tiers {
		ls.addRuns(t)
	}
	ls.merged = make([]atomic.Pointer[[]Packed], len(ls.paths))
	ls.stats.LabelPaths = len(ls.paths)
	return ls
}

// addRuns files a tier's non-empty runs under the directory, adding the
// paths the stack has not seen. Only constructors call it, on a stack no
// reader holds yet.
func (ls *Levels) addRuns(t *Tier) {
	for i, run := range t.ix.relations {
		if len(run) == 0 {
			continue // a shard tier's share of a path it does not own
		}
		p := t.ix.paths[i]
		id, ok := ls.ids[p.Key()]
		if !ok {
			id = ls.add(p, 0)
			ls.tierRuns = append(ls.tierRuns, nil)
		}
		ls.tierRuns[id] = append(ls.tierRuns[id], run)
		ls.counts[id] += len(run)
		ls.stats.Entries += len(run)
	}
}

// push returns the stack with t on top, sharing everything it can with
// the receiver: the directory is copied (O(label paths)), the run lists
// of the paths t touches grow by one, and the cached unions of every
// other path carry over. No tier's runs are read.
func (ls *Levels) push(t *Tier) (*Levels, error) {
	if err := checkTier(len(ls.tiers), ls.k, ls.g, t); err != nil {
		return nil, err
	}
	out := &Levels{
		directory: directory{
			g: t.ix.Graph(), k: ls.k, stats: ls.stats,
			// Clipped, so an append copies instead of writing into
			// the receiver's backing array.
			paths:  slices.Clip(ls.paths),
			ids:    maps.Clone(ls.ids),
			counts: slices.Clone(ls.counts),
		},
		base:     ls.base,
		tiers:    append(slices.Clip(ls.tiers), t),
		tierRuns: make([][][]Packed, len(ls.tierRuns)),
		numBase:  ls.numBase,
		sharded:  ls.sharded,
	}
	for id, runs := range ls.tierRuns {
		out.tierRuns[id] = slices.Clip(runs)
	}
	out.addRuns(t)
	out.merged = make([]atomic.Pointer[[]Packed], len(out.paths))
	for id := range ls.merged {
		if len(out.tierRuns[id]) == len(ls.tierRuns[id]) {
			out.merged[id].Store(ls.merged[id].Load())
		}
	}
	out.stats.LabelPaths = len(out.paths)
	out.stats.PathsKCount = pathsKAfter(ls.stats.PathsKCount, ls.base, ls.g, t)
	out.stats.Duration += t.ix.Stats().Duration
	return out, nil
}

// foldTiers merges two successive tiers into one over the newer one's
// graph. newer was built over base∪older, so its runs are disjoint from
// older's: the merge is a plain sorted union per path, and the pair
// counts add — a merge changes no relation, so nothing is recounted.
func foldTiers(older, newer *Tier) *Tier {
	d1, d2 := older.ix, newer.ix
	out := newIndex(d2.g, d2.k)
	for id, p := range d1.paths {
		out.addRun(p, mergeRuns(d1.relations[id], d2.Relation(p)))
	}
	for id, p := range d2.paths {
		if _, dup := out.ids[p.Key()]; !dup {
			out.addRun(p, d2.relations[id])
		}
	}
	out.stats.PathsKCount = d1.stats.PathsKCount + d2.stats.PathsKCount
	out.stats.Duration = d1.stats.Duration + d2.stats.Duration
	out.stats.DerivedPaths = d1.stats.DerivedPaths + d2.stats.DerivedPaths
	return NewTier(out, older.seqLo, newer.seqHi)
}

// mergeRuns returns the sorted union of two sorted disjoint runs. One
// empty side returns the other unchanged (zero-copy).
func mergeRuns(a, b []Packed) []Packed {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	return appendMerged(make([]Packed, 0, len(a)+len(b)), a, b)
}

// appendMerged appends the sorted union of two sorted disjoint runs to
// out.
func appendMerged(out, a, b []Packed) []Packed {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// PushTier layers a new tier over prev. When prev is itself a *Levels,
// the new stack shares its base, its tiers and its directory (see push):
// a push costs the new tier and the directory, not the accumulated
// delta. Any other Storage becomes the base of a fresh one-tier stack.
// The tier's index must have been built by BuildDelta against prev (or
// reloaded from the spill of one that was).
func PushTier(prev Storage, tier *Tier) (*Levels, error) {
	if ls, ok := prev.(*Levels); ok {
		return ls.push(tier)
	}
	return NewLevels(prev, []*Tier{tier})
}

// Base returns the stack's base storage.
func (ls *Levels) Base() Storage { return ls.base }

// Tiers returns the tier stack, oldest first. The slice must not be
// mutated.
func (ls *Levels) Tiers() []*Tier { return ls.tiers }

// BaseEntries returns the base index's entry count.
func (ls *Levels) BaseEntries() int { return ls.base.NumEntries() }

// DeltaEntries returns the number of entries held in tier runs.
func (ls *Levels) DeltaEntries() int { return ls.stats.Entries - ls.base.NumEntries() }

// DeltaRatio returns DeltaEntries/BaseEntries — the compaction trigger
// metric. Against an empty base the ratio is not well defined, so any
// non-empty stack reports 1 (always worth compacting).
func (ls *Levels) DeltaRatio() float64 {
	de := ls.DeltaEntries()
	be := ls.BaseEntries()
	if be == 0 {
		if de == 0 {
			return 0
		}
		return 1
	}
	return float64(de) / float64(be)
}

// Partitioner implements Sharded: the base's partitioner, nil over an
// unsharded base.
func (ls *Levels) Partitioner() Partitioner {
	if ls.sharded == nil {
		return nil
	}
	return ls.sharded.Partitioner()
}

// Shard implements Sharded: a Levels over the base's shard i whose tiers
// are this stack's tiers restricted to shard i's sources. The views are
// built once, on first use; the base must be sharded.
func (ls *Levels) Shard(i int) Storage {
	ls.shardOnce.Do(func() {
		part := ls.sharded.Partitioner()
		tiers := make([][]*Tier, part.NumShards())
		for _, t := range ls.tiers {
			for sh, st := range t.shardTiers(part) {
				tiers[sh] = append(tiers[sh], st)
			}
		}
		ls.shards = make([]*Levels, len(tiers))
		for sh := range ls.shards {
			ls.shards[sh] = newLevels(ls.sharded.Shard(sh), tiers[sh], ls.g)
		}
	})
	return ls.shards[i]
}

// MergeOnce folds one adjacent tier pair and returns the shortened
// stack, or ok=false when no pair qualifies. The policy is size-tiered:
// scanning from the newest end, a tier is folded into its older
// neighbour once it has grown to at least half the neighbour's size, so
// small fresh tiers coalesce quickly while a large settled tier is
// never re-merged by a trickle of tiny successors. Merged tiers lose
// their spill markers (the file on disk covers a stale range; recovery
// simply prefers the widest loadable spill).
//
// MergeOnce must not run while a Fold over the same stack is in flight:
// the fold's install step requires its source tiers to survive as a
// prefix of the current stack. Callers (pathdb) gate the two.
func (ls *Levels) MergeOnce() (*Levels, bool) {
	for i := len(ls.tiers) - 1; i > 0; i-- {
		older, newer := ls.tiers[i-1], ls.tiers[i]
		if newer.Entries()*2 < older.Entries() {
			continue
		}
		tiers := make([]*Tier, 0, len(ls.tiers)-1)
		tiers = append(tiers, ls.tiers[:i-1]...)
		tiers = append(tiers, foldTiers(older, newer))
		tiers = append(tiers, ls.tiers[i+1:]...)
		out, err := NewLevels(ls.base, tiers)
		if err != nil {
			// The inputs were a valid stack; a fold of adjacent tiers
			// cannot invalidate it.
			panic(fmt.Sprintf("pathindex: MergeOnce rebuilt an invalid stack: %v", err))
		}
		return out, true
	}
	return ls, false
}

// mergedRun returns the union of the path's tier runs, computing and
// caching it on first access. Single-tier paths alias the tier run
// (zero-copy); concurrent first accesses may both compute, which is
// benign (identical results, last store wins).
func (ls *Levels) mergedRun(id uint32) []Packed {
	if p := ls.merged[id].Load(); p != nil {
		return *p
	}
	var m []Packed
	for _, r := range ls.tierRuns[id] {
		m = mergeRuns(m, r)
	}
	ls.merged[id].Store(&m)
	return m
}

// Relation implements Storage. When both the base and tier runs are
// non-empty the merged run is freshly allocated; prefer Blocks on hot
// paths.
func (ls *Levels) Relation(p Path) []Packed {
	id, ok := ls.ids[p.Key()]
	if !ok {
		return nil
	}
	var base []Packed
	if id < uint32(ls.numBase) {
		base = ls.base.Relation(p)
	}
	return mergeRuns(base, ls.mergedRun(id))
}

// Blocks implements Storage: the base's cursor merged with the path's
// merged tier run as it reads, so a compressed base still decodes one
// block at a time. A path no tier touched is the base's own cursor, and
// a path the base does not hold is a cursor over its tier run,
// zero-copy.
func (ls *Levels) Blocks(p Path) *BlockIterator {
	id, ok := ls.ids[p.Key()]
	if !ok {
		return &BlockIterator{size: DefaultBlockSize}
	}
	tier := ls.mergedRun(id)
	if id >= uint32(ls.numBase) {
		return &BlockIterator{rel: tier, size: DefaultBlockSize}
	}
	base := ls.base.Blocks(p)
	if len(tier) == 0 {
		return base
	}
	return &BlockIterator{size: DefaultBlockSize, comp: &tierMerge{base: base, tier: tier, size: DefaultBlockSize}}
}

// SrcRange implements Storage: the base's ⟨p, src⟩ sub-run merged with
// the tiers'.
func (ls *Levels) SrcRange(p Path, src graph.NodeID) []Packed {
	return ls.Blocks(p).SrcRun(src)
}

// tierMerge is the cursor of a path that both a stack's base and its
// tiers hold: the base's cursor and a cursor over the merged tier run,
// which is disjoint from it, read as one sorted run.
type tierMerge struct {
	base  *BlockIterator
	head  []Packed // unconsumed rest of the base's current block
	spent bool     // the base has no block after head
	tier  []Packed // the path's whole merged tier run
	toff  int      // the tier cursor: next unconsumed tier pair
	size  int
	buf   []Packed // Next's merge buffer
	run   []Packed // SrcRun's merge buffer
}

// next returns up to size pairs (at most DefaultBlockSize) of the two
// runs' union. A base block wholly below the tier's next pair is handed
// out as it came, and once the base is spent the rest of the tier run
// is served zero-copy.
func (m *tierMerge) next() []Packed {
	if len(m.head) == 0 && !m.spent {
		m.head = m.base.Next()
		m.spent = len(m.head) == 0
	}
	t := m.tier[m.toff:]
	if m.spent {
		k := min(len(t), m.size)
		if k == 0 {
			return nil
		}
		m.toff += k
		return t[:k:k]
	}
	if len(t) == 0 || m.head[len(m.head)-1] < t[0] {
		b := m.head
		m.head = nil
		return b
	}
	if m.buf == nil {
		m.buf = make([]Packed, min(m.size, DefaultBlockSize))
	}
	out := m.buf
	n := 0
	for n < len(out) {
		if len(m.head) == 0 {
			if m.head = m.base.Next(); len(m.head) == 0 {
				m.spent = true
				break
			}
		}
		b, t := m.head, m.tier[m.toff:]
		i, j := 0, 0
		for n < len(out) && i < len(b) && j < len(t) {
			if b[i] < t[j] {
				out[n] = b[i]
				i++
			} else {
				out[n] = t[j]
				j++
			}
			n++
		}
		if j == len(t) {
			c := copy(out[n:], b[i:])
			i += c
			n += c
		}
		m.head = b[i:]
		m.toff += j
	}
	return out[:n]
}

func (m *tierMerge) seek(key Packed) {
	m.base.Seek(key)
	m.head, m.spent = nil, false
	m.toff = seekRun(m.tier, m.toff, key)
}

// srcRun merges the base's sub-run of src with the tier run's, copying
// only when both are non-empty.
func (m *tierMerge) srcRun(src graph.NodeID) []Packed {
	b := m.base.SrcRun(src)
	m.head, m.spent = nil, false
	lo := seekRun(m.tier, m.toff, Pack(src, 0))
	m.toff = lo + srcEnd(m.tier[lo:], src)
	t := m.tier[lo:m.toff:m.toff]
	switch {
	case len(t) == 0:
		return b
	case len(b) == 0:
		return t
	}
	m.run = appendMerged(m.run[:0], b, t)
	return slices.Clip(m.run)
}

func (m *tierMerge) err() error { return m.base.Err() }

func (m *tierMerge) sized(n int) {
	m.size, m.buf = n, nil
	m.base.Sized(n)
}

// Fold is an in-progress incremental compaction of a Levels stack: the
// fold of base + all tiers into one fresh immutable heap index, done
// path by path under a per-step entry budget so a large stack never
// stalls the updater for one monolithic copy. The source stack keeps
// serving readers throughout; the result is grafted back under any
// tiers pushed since (see core's compact job). A Fold is
// single-consumer: Step must not be called concurrently.
type Fold struct {
	src    *Levels
	out    *Index
	result Storage
	err    error
	next   int
	dur    time.Duration
}

// StartFold begins an incremental fold of the stack.
func (ls *Levels) StartFold() *Fold {
	return &Fold{src: ls, out: newIndex(ls.g, ls.k)}
}

// Step materializes merged runs until at least entryBudget entries have
// been copied (minimum one path per call, so progress is guaranteed),
// returning true once the fold is complete. Work per step is bounded by
// the budget plus one path's relation, independent of stack size — but
// for the last step over a sharded base, which also re-partitions the
// folded index.
func (f *Fold) Step(entryBudget int) bool {
	if f.Done() {
		return true
	}
	start := time.Now()
	budget := entryBudget
	first := true
	for f.next < len(f.src.paths) && (budget > 0 || first) {
		first = false
		id := uint32(f.next)
		p := f.src.paths[id]
		var base []Packed
		if id < uint32(f.src.numBase) {
			base = f.src.base.Relation(p)
		}
		delta := f.src.mergedRun(id)
		var rel []Packed
		switch {
		case len(delta) == 0:
			rel = slices.Clone(base)
		case len(base) == 0:
			rel = slices.Clone(delta)
		default:
			rel = mergeRuns(base, delta)
		}
		if len(rel) != f.src.counts[id] {
			// The base read short: CompressedIndex.Relation reads a
			// corrupt block's run as nil. Folding on would write the
			// loss into the compacted base.
			f.err = corrupt("path %v reads %d pairs in the stack, its directory holds %d", p, len(rel), f.src.counts[id])
			return true
		}
		f.out.addRun(p, rel)
		budget -= len(rel)
		f.next++
	}
	f.dur += time.Since(start)
	if f.next < len(f.src.paths) {
		return false
	}
	// The stack's (upper-bound) count carries over instead of a
	// full-sort recount — the recount is most of a rebuild's cost and the
	// value only feeds selectivity estimates.
	f.out.stats.PathsKCount = f.src.PathsKCount()
	f.out.stats.Duration = f.dur
	f.result = f.out
	if f.src.sharded != nil {
		sharded, err := ShardIndex(f.out, f.src.sharded.Partitioner())
		if err != nil {
			// The partitioner comes from a live sharded base.
			panic(fmt.Sprintf("pathindex: Fold re-partitioning failed: %v", err))
		}
		f.result = sharded
	}
	return true
}

// Done reports whether the fold has completed or failed.
func (f *Fold) Done() bool { return f.result != nil || f.err != nil }

// Err returns the error that stopped the fold, which wraps ErrCorrupt:
// a base run that reads fewer pairs than the directory holds.
func (f *Fold) Err() error { return f.err }

// Src returns the stack the fold reads from.
func (f *Fold) Src() *Levels { return f.src }

// Result returns the folded base in the layout of the base it replaces:
// a heap *Index, partitioned into a *ShardedStorage when the source base
// was sharded. It must only be called once Step has returned true, and
// is nil when Err is not.
func (f *Fold) Result() Storage {
	if !f.Done() {
		panic("pathindex: Fold.Result before completion")
	}
	return f.result
}

// Compacted folds the whole stack in one call (a Fold run to
// completion) and returns Fold.Result and Fold.Err.
func (ls *Levels) Compacted() (Storage, error) {
	f := ls.StartFold()
	for !f.Step(1 << 30) {
	}
	return f.result, f.err
}

// FileBytes forwards the base storage's on-disk size (0 over a heap
// base): tier runs are memory-resident and add no served file bytes
// (spill files are recovery artifacts, not serving storage).
func (ls *Levels) FileBytes() int {
	if f, ok := ls.base.(interface{ FileBytes() int }); ok {
		return f.FileBytes()
	}
	return 0
}

// DecodeStats forwards the base storage's decompression counters (zero
// over an uncompressed base).
func (ls *Levels) DecodeStats() (blocks, bytes int64) {
	if d, ok := ls.base.(interface{ DecodeStats() (int64, int64) }); ok {
		return d.DecodeStats()
	}
	return 0, 0
}

// Pin implements Pinner by delegating to the base.
func (ls *Levels) Pin() error { return ls.base.Pin() }

// Unpin implements Pinner.
func (ls *Levels) Unpin() { ls.base.Unpin() }

// Close releases the base storage when it is closeable (a mapped base's
// unmap); stacks over heap bases close to a no-op.
func (ls *Levels) Close() error {
	if c, ok := ls.base.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

var (
	_ Storage = (*Levels)(nil)
	_ Sharded = (*Levels)(nil)
)
