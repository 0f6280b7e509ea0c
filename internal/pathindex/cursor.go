package pathindex

import (
	"slices"

	"repro/internal/graph"
)

// DefaultBlockSize is the block granularity handed out by Blocks: large
// enough to amortize per-block bookkeeping, small enough that a block of
// packed words stays cache-resident while the executor decodes it.
const DefaultBlockSize = 4096

// BlockIterator is a forward cursor over one sorted relation, whatever
// the storage: the one way the executor and BuildDelta read a run. Next
// yields the run as consecutive []Packed blocks; Seek moves the cursor
// to the first pair ≥ a key, and SrcRun reads one source's sub-run (the
// paper's ⟨p, a⟩ prefix lookup) and leaves the cursor just past it.
//
// Each representation keeps the cursor's position between calls, so a
// run of ascending seeks costs what lies between them:
//
//   - a heap run (an *Index, a tier-only path of a *Levels) gallops
//     forward from the current offset, and its blocks and sub-runs are
//     zero-copy sub-slices of the index run;
//   - a *CompressedIndex run skips whole on-disk blocks by their first
//     pairs, and into the block it lands in by the block's restart
//     points, and decodes that block only as far as the pairs it
//     returns: the fewer than restartEvery pairs between the restart and
//     the key are read past, not kept, and a later seek further into
//     the block reads on from there or from a later restart;
//   - a *Levels path held by base and tiers seeks the base's cursor and
//     the path's tier run, and merges the two as it reads;
//   - a *ShardedStorage path routes a seek to the cursor of the shard
//     owning the key's source, which alone holds that source's pairs,
//     and merges the shards' cursors only when a read runs past it.
//
// A key below the cursor is legal and searches again from the start
// (for a compressed run, from its block directory, decoding the block
// again unless the key lies in what it holds). A returned block or
// sub-run must not be mutated, and unless it aliases a heap run it is
// only valid until the next call on the iterator; consumers (IndexScan,
// ProbeJoin) finish with it before calling again.
//
// A compressed block that fails its checksum or its decode checks ends
// the cursor: it reads as exhausted from then on and Err returns the
// error, which wraps ErrCorrupt. A reader that drained or probed a
// cursor checks Err before it trusts what it read as complete.
type BlockIterator struct {
	rel  []Packed // heap source: the whole run; compressed: a window onto block blk-1
	off  int      // the cursor: next pair of rel to hand out
	size int

	// Compressed source: when cr is non-nil, rel is a window onto the
	// held block blk-1 — every pair of it from the first ≥ from up to
	// rel's last — and dec reads the block on from there.
	cr   *compressedRun
	blk  int
	from Packed
	dec  blockReader
	run  []Packed // SrcRun's result when a sub-run spans blocks
	err  error    // the decode error that ended the cursor

	// Composite source (a Levels merge, a sharded router): when comp is
	// non-nil it serves every call.
	comp composite
}

// composite is the cursor of a source built from other cursors.
type composite interface {
	next() []Packed
	seek(key Packed)
	srcRun(src graph.NodeID) []Packed
	sized(n int)
	err() error
}

// Err returns the error that ended the cursor early, nil while every
// block it read was sound.
func (bi *BlockIterator) Err() error {
	if bi.comp != nil {
		return bi.comp.err()
	}
	return bi.err
}

// Next returns the next block, or nil at exhaustion. A corrupt block
// ends the iteration early, with Err set.
func (bi *BlockIterator) Next() []Packed {
	if bi.comp != nil {
		return bi.comp.next()
	}
	for bi.off >= len(bi.rel) {
		if bi.cr == nil || !bi.advance() {
			return nil
		}
	}
	end := bi.off + bi.size
	if end > len(bi.rel) {
		end = len(bi.rel)
	}
	b := bi.rel[bi.off:end:end]
	bi.off = end
	return b
}

// advance decodes the rest of the held block, or else all of the next
// one. It reports false at the end of the run and on a corrupt block.
func (bi *BlockIterator) advance() bool {
	if bi.dec.left == 0 {
		if bi.blk >= len(bi.cr.counts) {
			return false
		}
		if n := int(bi.cr.counts[bi.blk]); cap(bi.rel) < n {
			bi.rel = make([]Packed, 0, n) // a scan reads whole blocks, all but the last full
		}
		if !bi.start(bi.blk, 0) {
			return false
		}
	}
	return bi.extend(^Packed(0))
}

// start makes on-disk block b the held block, with a window that begins
// at its first pair ≥ key: the pairs before that are read past, not
// kept. The cursor is on the window's first pair. The window answers
// seeks from key on, or from the block's first pair if that is greater
// (below it lie the earlier blocks, or nothing for block 0).
func (bi *BlockIterator) start(b int, key Packed) bool {
	dec, err := bi.cr.reader(b)
	if err != nil {
		return bi.fail(err)
	}
	bi.dec, bi.blk = dec, b+1
	bi.rel, bi.off, bi.from = bi.rel[:0], 0, key
	if b > 0 {
		bi.from = max(key, bi.dec.prev)
	}
	return bi.skipTo(key)
}

// skipTo fills the emptied window from the held block's first pair
// ≥ key on, reading from the last restart point at or below key when
// that lies past the reader.
func (bi *BlockIterator) skipTo(key Packed) bool {
	if key > bi.dec.prev {
		if err := bi.cr.restart(bi.blk-1, &bi.dec, key); err != nil {
			return bi.fail(err)
		}
	}
	if key <= bi.dec.prev {
		bi.rel = append(bi.rel, bi.dec.prev)
		return true
	}
	if err := bi.dec.skip(key); err != nil {
		return bi.fail(err)
	}
	return bi.extend(key)
}

// extend decodes the held block into the window until the window's last
// pair is ≥ stop or the block is spent, so a lookup decodes no further
// into a block than the pairs it reads. A decode error ends the cursor
// (see fail) and returns false.
func (bi *BlockIterator) extend(stop Packed) bool {
	if n := len(bi.rel); bi.dec.left == 0 || n > 0 && bi.rel[n-1] >= stop {
		return true
	}
	rel, err := bi.dec.read(bi.rel, stop)
	if err != nil {
		return bi.fail(err)
	}
	bi.rel = rel
	return true
}

// fail ends a compressed cursor on a corrupt block: it keeps err for Err
// and empties the cursor for good. It returns false.
func (bi *BlockIterator) fail(err error) bool {
	bi.cr, bi.rel, bi.off, bi.dec, bi.err = nil, nil, 0, blockReader{}, err
	return false
}

// Seek moves the cursor to the first pair ≥ key: the next Next returns
// a block that begins there, or nil when no pair is ≥ key.
func (bi *BlockIterator) Seek(key Packed) {
	switch {
	case bi.comp != nil:
		bi.comp.seek(key)
	case bi.cr != nil:
		bi.seekBlock(key)
	default:
		bi.off = seekRun(bi.rel, bi.off, key)
	}
}

// seekBlock is Seek over a compressed run. A key in the held block's
// window costs a search of it; a key past the window reads on through
// the block, keeping nothing before the key; any other key starts the
// one block that can hold it, found by galloping over the blocks' first
// pairs from the held block on (or from the start, for a key below the
// window).
func (bi *BlockIterator) seekBlock(key Packed) {
	r := bi.cr
	held := bi.blk > 0 && key >= bi.from
	if !held || bi.blk < len(r.firsts) && key >= r.firsts[bi.blk] {
		from := 0
		if held {
			from = bi.blk
		}
		bi.start(max(from+upper(r.firsts[from:], key)-1, 0), key)
		return
	}
	if n := len(bi.rel); bi.dec.left == 0 || n > 0 && key <= bi.rel[n-1] {
		bi.off = seekRun(bi.rel, bi.off, key)
		return
	}
	bi.rel, bi.off, bi.from = bi.rel[:0], 0, key
	bi.skipTo(key)
}

// SrcRun returns the sub-run of pairs with Src == src and leaves the
// cursor just past it: a Seek to Pack(src, 0) read up to Pack(src+1, 0).
// A run that ends at a block boundary is known to end there from the
// next block's first pair, so SrcRun decodes no block it does not
// return pairs from. The result aliases the index over a heap run and is
// otherwise valid until the next call on the iterator.
func (bi *BlockIterator) SrcRun(src graph.NodeID) []Packed {
	switch {
	case bi.comp != nil:
		return bi.comp.srcRun(src)
	case bi.cr == nil:
		lo := seekRun(bi.rel, bi.off, Pack(src, 0))
		bi.off = lo + srcEnd(bi.rel[lo:], src)
		return bi.rel[lo:bi.off:bi.off]
	}
	limit := ^Packed(0) // the first pair past src's sub-run, if src has a successor
	if src < ^graph.NodeID(0) {
		limit = Pack(src+1, 0)
	}
	bi.seekBlock(Pack(src, 0))
	if bi.cr == nil || !bi.extend(limit) {
		return nil
	}
	lo := bi.off
	bi.off = lo + srcEnd(bi.rel[lo:], src)
	out := bi.rel[lo:bi.off:bi.off]
	spans := false
	for bi.off == len(bi.rel) && bi.dec.left == 0 && bi.blk < len(bi.cr.firsts) && bi.cr.firsts[bi.blk].Src() == src {
		if !spans {
			bi.run = append(bi.run[:0], out...)
			spans = true
		}
		if !bi.start(bi.blk, 0) || !bi.extend(limit) {
			break
		}
		bi.off = srcEnd(bi.rel, src)
		bi.run = append(bi.run, bi.rel[:bi.off]...)
	}
	if spans {
		return slices.Clip(bi.run)
	}
	return out
}

// Sized sets the block size (minimum 1) and returns the iterator, for
// consumers that want other than DefaultBlockSize blocks. Over a
// compressed or merged run, blocks larger than the decode granularity
// (DefaultBlockSize pairs) are served at that granularity.
func (bi *BlockIterator) Sized(blockSize int) *BlockIterator {
	bi.size = max(blockSize, 1)
	if bi.comp != nil {
		bi.comp.sized(bi.size)
	}
	return bi
}

// seekRun returns the offset of the first pair ≥ key in the sorted run
// rel for a cursor at off: galloping forward from off, or searching the
// pairs before it when key does not lie beyond them.
func seekRun(rel []Packed, off int, key Packed) int {
	if off > 0 && rel[off-1] >= key {
		i, _ := slices.BinarySearch(rel[:off], key)
		return i
	}
	return off + gallop(rel[off:], key)
}

// gallop returns the smallest i with s[i] ≥ key (len(s) if none) for a
// sorted s, probing at doubling strides from the front and
// binary-searching the last stride: O(log i), so a near key is cheap.
func gallop(s []Packed, key Packed) int {
	if len(s) == 0 || s[0] >= key {
		return 0
	}
	lo, step := 0, 1 // s[lo] < key
	for lo+step < len(s) && s[lo+step] < key {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(s))
	i, _ := slices.BinarySearch(s[lo+1:hi], key)
	return lo + 1 + i
}

// upper returns the smallest i with s[i] > key (len(s) if none).
func upper(s []Packed, key Packed) int {
	if key == ^Packed(0) {
		return len(s)
	}
	return gallop(s, key+1)
}

// srcEnd returns the length of the prefix of rel, which holds no pair
// below Pack(src, 0), whose pairs have Src == src.
func srcEnd(rel []Packed, src graph.NodeID) int {
	if src == ^graph.NodeID(0) {
		return len(rel)
	}
	return gallop(rel, Pack(src+1, 0))
}

// Blocks returns a BlockIterator over p(G) with DefaultBlockSize blocks.
// Scanning an unindexed path yields an empty iterator. This is the
// paper's I_{G,k}(⟨p⟩) prefix lookup in bulk form.
func (ix *Index) Blocks(p Path) *BlockIterator {
	return &BlockIterator{rel: ix.Relation(p), size: DefaultBlockSize}
}
