package pathindex

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// On-disk index format v4, the one index file format: a page-aligned
// header, label table, and path directory, then a data section in which
// every sorted packed run is block-compressed. A run is split into blocks
// of at most blockPairs pairs; a block stores its first pair verbatim in
// a per-run block directory and the remaining pairs as uvarint deltas
// between consecutive packed words (strict ascent makes every delta ≥ 1,
// so a zero delta on decode is proof of corruption). Dense runs — whose
// pairs share sources and differ in small dst steps — compress to 1–2
// bytes per pair against 8 raw. All integers are little-endian; varints
// are the unsigned LEB128 of encoding/binary.
//
//	page 0          fixed-width 96-byte header (rest of the page zero):
//	                  [0:4)   magic "PIDX"
//	                  [4:8)   version u32 = 4
//	                  [8:12)  flags u32 (reserved, zero)
//	                  [12:16) page size u32 (4096)
//	                  [16:20) k u32
//	                  [20:24) label count u32
//	                  [24:28) path count u32
//	                  [28:32) metadata CRC32C: over the file up to the
//	                          data section minus these four bytes, then
//	                          every run's block directory in run order
//	                  [32:40) entry count u64
//	                  [40:48) |paths_k(G)| u64 (0 when skipped at build).
//	                          In a tier's spill file: the tier's own
//	                          distinct non-identity pair count
//	                  [48:64) labels section offset u64, length u64
//	                  [64:80) directory offset u64, length u64
//	                  [80:96) data offset u64, length u64 (the aligned
//	                          sum of run encodings)
//	labels section  per label: u32 name length + name bytes, checked
//	                against the graph the index is attached to
//	directory       one fixed-width record per path id, 8-byte aligned:
//	                  [0:8)      run offset u64 (absolute, 8-aligned)
//	                  [8:16)     encoded length u64 (block dir + blocks)
//	                  [16:24)    pair count u64
//	                  [24:28)    block count u32
//	                  [28:32)    path length u32
//	                  [32:32+4k) k slots of u32 DirLabel
//	data section    page-aligned; runs tile it densely in directory
//	                order at 8-byte-aligned offsets, zero-padded. Each
//	                run is its block directory (block count × 20-byte
//	                entries: first pair u64, byte offset u32 of the block
//	                in the run's payload, pair count u16, trailer length
//	                u16, CRC32C u32 of the block's bytes) followed by
//	                the concatenated blocks. A block is its deltas, then
//	                its restart trailer.
//
// Restart points. Pair i·restartEvery of a block (i ≥ 1) is a restart:
// the trailer records, for each in order, the pair and the offset in
// the block of the delta after it, so a reader can start there with
// nothing decoded. A seek picks the block's last restart at or below
// its key and decodes fewer than restartEvery pairs, where the delta
// chain alone would decode every pair below the key; a scan reads the
// chain from the front and never looks at the trailer. A trailer entry
// is delta-coded against the restart before it (the block's first pair
// for the first): uvarint(dst step·2) when the source is unchanged,
// else uvarint(source step·2+1) and uvarint(dst); then the offset step
// less restartEvery (each of the deltas between takes a byte or more),
// as a uvarint.
//
// Integrity. The metadata CRC is checked at open, so a damaged header,
// directory or block directory — which would misroute a seek to a
// wrong but intact block — never opens. Each block's CRC covers its
// deltas and trailer and is checked on the block's first decode only,
// recorded in an index-wide bitmap: open cost stays proportional to the
// block count, never to the payload, and a seek into a block already
// checked pays nothing. The one block an open reads — the last of each
// single-label run, for the graph check — is checked there. A mismatch is an error wrapping ErrCorrupt at
// the read that met it (see BlockIterator.Err), never a shorter or
// different relation.
//
// Format versions 1–3 share the magic and version field and are refused
// with ErrFormatVersion. An index is derived data — a pure function of
// the graph file and k — so rebuilding it with `rpq build` is the
// migration.
const (
	magic         = "PIDX"
	formatVersion = 4
	pageSize      = 4096
	headerSize    = 96
	// maxSaneK bounds the locality parameter accepted from disk; real
	// indexes use single digits, so anything larger marks a corrupt or
	// hostile file before it can drive huge allocations.
	maxSaneK = 1024
	// blockPairs is the maximum number of pairs per compressed block —
	// the decode granularity of every scan. It matches DefaultBlockSize
	// so one decoded block feeds the executor's block iterator directly.
	blockPairs = DefaultBlockSize
	// blockDirEntry is the size of one block-directory entry.
	blockDirEntry = 20
	// restartEvery is the distance in pairs between a block's restart
	// points, the most a seek decodes inside a block.
	restartEvery = 128
)

// ErrCorrupt marks index bytes that fail a checksum or a structural
// check: at open for the header, label table, directories and block
// directories, at a block's first read for its payload.
var ErrCorrupt = errors.New("pathindex: corrupt index")

// ErrFormatVersion marks an index file of a format version this build
// does not read; the error names the version.
var ErrFormatVersion = errors.New("rebuild the index with `rpq build`")

// castagnoli is the CRC32C table of both index checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// corrupt returns a structural error wrapping ErrCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func align8(n int) int    { return (n + 7) &^ 7 }
func alignPage(n int) int { return (n + pageSize - 1) &^ (pageSize - 1) }

// recSize returns the directory record width for locality parameter k.
func recSize(k int) int { return align8(32 + 4*k) }

// appendRun appends the encoding of rel (block directory, then the
// blocks) to buf.
func appendRun(buf []byte, rel []Packed) []byte {
	nb := (len(rel) + blockPairs - 1) / blockPairs
	dirStart := len(buf)
	buf = append(buf, make([]byte, nb*blockDirEntry)...)
	payloadStart := len(buf)
	le := binary.LittleEndian
	for b := 0; b < nb; b++ {
		blk := rel[b*blockPairs : min((b+1)*blockPairs, len(rel))]
		start := len(buf)
		var tlen int
		buf, tlen = appendBlock(buf, blk)
		ent := buf[dirStart+b*blockDirEntry:]
		le.PutUint64(ent[0:], uint64(blk[0]))
		le.PutUint32(ent[8:], uint32(start-payloadStart))
		le.PutUint16(ent[12:], uint16(len(blk)))
		le.PutUint16(ent[14:], uint16(tlen))
		le.PutUint32(ent[16:], crc32.Checksum(buf[start:], castagnoli))
	}
	return buf
}

// appendBlock appends one block's bytes — the deltas after its first
// pair, then its restart trailer — and returns the trailer's length.
func appendBlock(buf []byte, blk []Packed) ([]byte, int) {
	start := len(buf)
	var offs [blockPairs / restartEvery]int // restart i+1's resume offset
	for i := 1; i < len(blk); i++ {
		buf = binary.AppendUvarint(buf, uint64(blk[i]-blk[i-1]))
		if i%restartEvery == 0 {
			offs[i/restartEvery-1] = len(buf) - start
		}
	}
	tstart := len(buf)
	prev, prevOff := blk[0], 0
	for i := 1; i*restartEvery < len(blk); i++ {
		key, off := blk[i*restartEvery], offs[i-1]
		if key.Src() == prev.Src() {
			buf = binary.AppendUvarint(buf, uint64(key.Dst()-prev.Dst())<<1)
		} else {
			buf = binary.AppendUvarint(buf, uint64(key.Src()-prev.Src())<<1|1)
			buf = binary.AppendUvarint(buf, uint64(key.Dst()))
		}
		buf = binary.AppendUvarint(buf, uint64(off-prevOff-restartEvery))
		prev, prevOff = key, off
	}
	return buf, len(buf) - tstart
}

// WriteTo serializes the index in the current format (v4) and returns
// the number of bytes written. The output is a valid input for
// OpenCompressed, OpenStorage, and Load. The data section is encoded in
// memory first: the header's checksum covers every block directory.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	labels := ix.g.Labels()
	labelsLen := 0
	for _, name := range labels {
		labelsLen += 4 + len(name)
	}
	rs := recSize(ix.k)
	labelsOff := pageSize
	dirOff := align8(labelsOff + labelsLen)
	dirLen := len(ix.paths) * rs
	dataOff := alignPage(dirOff + dirLen)

	le := binary.LittleEndian
	head := make([]byte, dataOff)
	var data []byte
	entries := 0
	for pid, rel := range ix.relations {
		entries += len(rel)
		runOff := len(data)
		data = appendRun(data, rel)
		rec := head[dirOff+pid*rs:]
		le.PutUint64(rec[0:], uint64(dataOff+runOff))
		le.PutUint64(rec[8:], uint64(len(data)-runOff))
		le.PutUint64(rec[16:], uint64(len(rel)))
		le.PutUint32(rec[24:], uint32((len(rel)+blockPairs-1)/blockPairs))
		le.PutUint32(rec[28:], uint32(len(ix.paths[pid])))
		for j, d := range ix.paths[pid] {
			le.PutUint32(rec[32+4*j:], uint32(d))
		}
		data = append(data, make([]byte, align8(len(data))-len(data))...)
	}

	copy(head, magic)
	le.PutUint32(head[4:], formatVersion)
	le.PutUint32(head[12:], pageSize)
	le.PutUint32(head[16:], uint32(ix.k))
	le.PutUint32(head[20:], uint32(len(labels)))
	le.PutUint32(head[24:], uint32(len(ix.paths)))
	le.PutUint64(head[32:], uint64(entries))
	le.PutUint64(head[40:], uint64(ix.stats.PathsKCount))
	le.PutUint64(head[48:], uint64(labelsOff))
	le.PutUint64(head[56:], uint64(labelsLen))
	le.PutUint64(head[64:], uint64(dirOff))
	le.PutUint64(head[72:], uint64(dirLen))
	le.PutUint64(head[80:], uint64(dataOff))
	le.PutUint64(head[88:], uint64(len(data)))
	off := labelsOff
	for _, name := range labels {
		le.PutUint32(head[off:], uint32(len(name)))
		copy(head[off+4:], name)
		off += 4 + len(name)
	}
	crc := metaCRC(head)
	for pid := range ix.relations {
		rec := head[dirOff+pid*rs:]
		runOff := le.Uint64(rec[0:]) - uint64(dataOff)
		crc = crc32.Update(crc, castagnoli, data[runOff:runOff+uint64(le.Uint32(rec[24:]))*blockDirEntry])
	}
	le.PutUint32(head[28:], crc)

	var n int64
	for _, part := range [][]byte{head, data} {
		m, err := w.Write(part)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// metaCRC starts the metadata checksum: the file's bytes before the
// data section, less the checksum field itself.
func metaCRC(head []byte) uint32 {
	return crc32.Update(crc32.Checksum(head[:28], castagnoli), castagnoli, head[32:])
}

// Save writes the index to a file in the current format (the
// block-compressed layout OpenCompressed consumes).
func (ix *Index) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveAtomic is Save through a temp file, fsync, and rename, so a crash
// mid-write never leaves a half-written file under the final name.
// Spills and checkpoints use it: the WAL record that names the file is
// appended only after it returns.
func (ix *Index) SaveAtomic(path string) error {
	tmp := path + ".tmp"
	if err := ix.saveSync(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// saveSync writes the index at path and fsyncs it.
func (ix *Index) saveSync(path string) error {
	return createSync(path, func(f *os.File) error {
		_, err := ix.WriteTo(f)
		return err
	})
}

// createSync creates the file at path, fills it through write, and
// fsyncs it before closing.
func createSync(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeCounters accumulates scan-side decompression work. The counters
// are global to the storage (not per query) and updated atomically, so
// per-query numbers are deltas between reads; under concurrent queries
// they are approximate attribution, exact totals.
type decodeCounters struct {
	blocks atomic.Int64
	bytes  atomic.Int64
}

// compressedRun is the in-memory handle onto one block-compressed run:
// the decoded block directory (O(block count) little slices built at
// open) plus the payload aliasing the file image.
type compressedRun struct {
	firsts  []Packed // block id -> first pair, strictly ascending
	offs    []uint32 // block id -> payload byte offset; len = blocks+1
	tails   []uint32 // block id -> payload byte offset of its trailer
	counts  []uint32 // block id -> pairs in the block (1..blockPairs)
	crcs    []uint32 // block id -> CRC32C of payload[offs[b]:offs[b+1]]
	payload []byte   // concatenated blocks, aliasing the file
	n       int      // total pairs
	ctr     *decodeCounters
	// checked is the index-wide bitmap of blocks whose CRC has passed;
	// this run's block b is bit bit0+b.
	checked []atomic.Uint64
	bit0    int
}

// check verifies block b's CRC on its first read and records the pass.
// Readers that race to the first read both compute it.
func (r *compressedRun) check(b int) error {
	i := r.bit0 + b
	w, m := &r.checked[i>>6], uint64(1)<<(i&63)
	if w.Load()&m != 0 {
		return nil
	}
	if crc32.Checksum(r.payload[r.offs[b]:r.offs[b+1]], castagnoli) != r.crcs[b] {
		return corrupt("block %d fails its checksum", b)
	}
	w.Or(m)
	return nil
}

// decode appends block b's pairs to dst, checked as blockReader checks
// them.
func (r *compressedRun) decode(b int, dst []Packed) ([]Packed, error) {
	br, err := r.reader(b)
	if err != nil {
		return nil, err
	}
	dst, err = br.read(append(slices.Grow(dst, int(r.counts[b])), br.prev), ^Packed(0))
	if err != nil {
		return nil, fmt.Errorf("block %d: %w", b, err)
	}
	return dst, nil
}

// reader checks block b (see check), counts a decode of it and returns a
// reader positioned after its first pair, which the block directory
// holds.
func (r *compressedRun) reader(b int) (blockReader, error) {
	if err := r.check(b); err != nil {
		return blockReader{}, err
	}
	r.ctr.blocks.Add(1)
	r.ctr.bytes.Add(blockDirEntry)
	return blockReader{
		ctr:  r.ctr,
		rest: r.payload[r.offs[b]:r.tails[b]],
		prev: r.firsts[b],
		left: int(r.counts[b]) - 1,
	}, nil
}

// restart moves br, a reader of block b, to the block's last restart
// point at or below key when that lies past the pair br read last, so
// that a skip to key from there reads fewer than restartEvery pairs. The
// restart's bytes are not counted as read: nothing before it is decoded.
func (r *compressedRun) restart(b int, br *blockReader, key Packed) error {
	t := r.payload[r.tails[b]:r.offs[b+1]]
	chain := r.payload[r.offs[b]:r.tails[b]]
	prev, off, at := r.firsts[b], 0, 0
	for i := 1; len(t) > 0; i++ {
		k, o, rest, err := nextRestart(t, prev, off, len(chain))
		if err != nil {
			return fmt.Errorf("block %d restart %d: %w", b, i, err)
		}
		if k > key || i*restartEvery >= int(r.counts[b]) {
			break
		}
		prev, off, at, t = k, o, i, rest
	}
	if at > 0 && prev > br.prev {
		br.rest, br.prev, br.left = chain[off:], prev, int(r.counts[b])-1-at*restartEvery
	}
	return nil
}

// nextRestart decodes the trailer entry at the front of t, the restart
// after the one at prev (resuming at chain offset off), in a block whose
// delta chain is chainLen bytes. It returns the restart's pair and
// offset and the rest of the trailer.
func nextRestart(t []byte, prev Packed, off, chainLen int) (Packed, int, []byte, error) {
	v, n := binary.Uvarint(t)
	if n <= 0 {
		return 0, 0, nil, corrupt("bad varint")
	}
	t = t[n:]
	src, dst := uint64(prev.Src()), uint64(prev.Dst())+v>>1
	if v&1 != 0 {
		d, n := binary.Uvarint(t)
		if n <= 0 {
			return 0, 0, nil, corrupt("bad varint")
		}
		src, dst, t = src+v>>1, d, t[n:]
	}
	step, n := binary.Uvarint(t)
	step += restartEvery
	if n <= 0 || src > math.MaxUint32 || dst > math.MaxUint32 || step < restartEvery || step > uint64(chainLen-off) {
		return 0, 0, nil, corrupt("out of range")
	}
	k := Pack(graph.NodeID(src), graph.NodeID(dst))
	if k <= prev {
		return 0, 0, nil, corrupt("not ascending")
	}
	return k, off + int(step), t[n:], nil
}

// checkRestarts reports a trailer of block b that disagrees with the
// block's deltas: it must hold exactly one entry per restart point, each
// naming the pair there and the offset of the delta after it.
func (r *compressedRun) checkRestarts(b int, pairs []Packed) error {
	t := r.payload[r.tails[b]:r.offs[b+1]]
	chain := r.payload[r.offs[b]:r.tails[b]]
	prev, off, pos := r.firsts[b], 0, 0
	for i := restartEvery; i < len(pairs); i += restartEvery {
		for j := i - restartEvery; j < i; j++ {
			_, n := binary.Uvarint(chain[pos:])
			pos += n
		}
		k, o, rest, err := nextRestart(t, prev, off, len(chain))
		if err != nil || k != pairs[i] || o != pos {
			return corrupt("block %d restart %d does not match its deltas", b, i/restartEvery)
		}
		prev, off, t = k, o, rest
	}
	if len(t) != 0 {
		return corrupt("block %d has %d trailer bytes past its restarts", b, len(t))
	}
	return nil
}

// blockReader reads one block's varint deltas front to back: rest is
// the unread delta chain, prev the pair read last and left the pairs
// still to read. Every read is bounds- and order-checked: a short or
// overlong varint, a zero delta (a duplicate pair), a wrapping delta,
// and chain bytes left over after the block's last pair are errors
// wrapping ErrCorrupt, never bad data.
//
// One-byte deltas are the common case inside a source's sub-run, so
// eight of them in a row — a word with no continuation bit set and no
// zero byte — are read at once.
type blockReader struct {
	ctr  *decodeCounters
	rest []byte
	prev Packed
	left int
}

// eightDeltas returns the eight one-byte deltas at the front of p as
// one word, when p has eight such bytes and the block eight pairs left.
func eightDeltas(p []byte, left int) (uint64, bool) {
	const high, low = 0x8080808080808080, 0x0101010101010101
	if left < 8 || len(p) < 8 {
		return 0, false
	}
	w := binary.LittleEndian.Uint64(p)
	return w, w&high == 0 && (w-low)&high == 0
}

// nextDelta returns the delta at the front of p and its width, which is
// not positive for a malformed varint.
func nextDelta(p []byte) (uint64, int) {
	if len(p) > 0 && p[0] < 0x80 {
		return uint64(p[0]), 1
	}
	return binary.Uvarint(p)
}

// read appends pairs to dst until it has appended one ≥ stop (and at
// most seven more) or the block is spent.
func (br *blockReader) read(dst []Packed, stop Packed) ([]Packed, error) {
	p, prev, left := br.rest, br.prev, br.left
	for left > 0 && prev < stop {
		if w, ok := eightDeltas(p, left); ok {
			v0 := prev + Packed(w&0xff)
			v1 := v0 + Packed(w>>8&0xff)
			v2 := v1 + Packed(w>>16&0xff)
			v3 := v2 + Packed(w>>24&0xff)
			v4 := v3 + Packed(w>>32&0xff)
			v5 := v4 + Packed(w>>40&0xff)
			v6 := v5 + Packed(w>>48&0xff)
			v7 := v6 + Packed(w>>56)
			if v7 > prev {
				dst = append(dst, v0, v1, v2, v3, v4, v5, v6, v7)
				prev, p, left = v7, p[8:], left-8
				continue
			}
		}
		d, n := nextDelta(p)
		v := prev + Packed(d)
		if n <= 0 || v <= prev {
			return nil, corrupt("bad or non-ascending delta with %d pairs left", left)
		}
		dst = append(dst, v)
		prev, p, left = v, p[n:], left-1
	}
	return dst, br.advance(p, prev, left)
}

// skip reads past every pair below key without keeping it, so the next
// pair read is the block's first ≥ key.
func (br *blockReader) skip(key Packed) error {
	p, prev, left := br.rest, br.prev, br.left
	for left > 0 {
		if w, ok := eightDeltas(p, left); ok {
			// The eight deltas summed in four 16-bit lanes, then across.
			lanes := w&0x00ff00ff00ff00ff + w>>8&0x00ff00ff00ff00ff
			if v := prev + Packed(lanes*0x0001000100010001>>48); v > prev && v < key {
				prev, p, left = v, p[8:], left-8
				continue
			}
		}
		d, n := nextDelta(p)
		v := prev + Packed(d)
		if n <= 0 || v <= prev {
			return corrupt("bad or non-ascending delta with %d pairs left", left)
		}
		if v >= key {
			break
		}
		prev, p, left = v, p[n:], left-1
	}
	return br.advance(p, prev, left)
}

// advance moves the reader to where a read stopped, counting the
// payload bytes read, and checks the block there (see check).
func (br *blockReader) advance(p []byte, prev Packed, left int) error {
	br.ctr.bytes.Add(int64(len(br.rest) - len(p)))
	br.rest, br.prev, br.left = p, prev, left
	return br.check()
}

// check reports a block that is inconsistent where a read stopped:
// chain bytes left after its last pair, or pairs left after the
// greatest packed value, which no pair can follow.
func (br *blockReader) check() error {
	switch {
	case br.left == 0 && len(br.rest) != 0:
		return corrupt("%d trailing payload bytes", len(br.rest))
	case br.left > 0 && br.prev == ^Packed(0):
		return corrupt("%d pairs after the greatest pair", br.left)
	}
	return nil
}

// last returns the greatest pair of a non-empty run: the last block,
// checked, read from its last restart on — no buffer, and no decode
// counted as scan work.
func (r *compressedRun) last() (Packed, error) {
	b := len(r.counts) - 1
	if err := r.check(b); err != nil {
		return 0, err
	}
	br := blockReader{ctr: new(decodeCounters), rest: r.payload[r.offs[b]:r.tails[b]], prev: r.firsts[b], left: int(r.counts[b]) - 1}
	if err := r.restart(b, &br, ^Packed(0)); err != nil {
		return 0, err
	}
	if err := br.skip(^Packed(0)); err != nil {
		return 0, fmt.Errorf("block %d: %w", b, err)
	}
	if br.left != 0 {
		// skip stops below its key; the last pair is the one it stopped at.
		d, _ := nextDelta(br.rest)
		return br.prev + Packed(d), nil
	}
	return br.prev, nil
}

// decodeAll decodes the whole run, additionally verifying cross-block
// ascent (each block's first pair must exceed its predecessor's last).
func (r *compressedRun) decodeAll(dst []Packed) ([]Packed, error) {
	for b := range r.counts {
		if b > 0 && len(dst) > 0 && r.firsts[b] <= dst[len(dst)-1] {
			return nil, corrupt("block %d starts at or below the previous block's last pair", b)
		}
		var err error
		dst, err = r.decode(b, dst)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// CompressedIndex is a read-only k-path index served directly from an
// index file image: on unix hosts a read-only memory mapping, elsewhere
// (or when mmap fails) an in-memory copy of the file. Opening decodes
// only the header, label table, directory, and per-run block
// directories, and checks their CRC — cost proportional to the block
// count, never to the payload. Every read goes through the one cursor of
// a run (see BlockIterator): a scan decodes one block at a time into a
// reused buffer, a seek or prefix lookup skips to the block holding its
// key by the block directory and into it by the block's restart points,
// and decodes that block only as far as it reads, keeping it for the
// lookups after it, and Relation decodes the full run into a fresh
// slice.
//
// A CompressedIndex satisfies Storage and is safe for any number of
// concurrent readers. Its Pinner half guards the mapping: the engine
// pins the index around every evaluation, and Close marks the index
// closing (failing new Pins with ErrClosed), blocks until in-flight
// readers release their pins, and only then unmaps, so a concurrent
// Close never invalidates memory a query is scanning. A block whose
// bytes fail their CRC or their decode checks ends the cursor that read
// it with an error wrapping ErrCorrupt (BlockIterator.Err); VerifyBlocks
// (and Load, which always decodes everything) reads every block up
// front.
type CompressedIndex struct {
	directory
	runs []compressedRun
	// Every block decode writes dec; the pad keeps it off the cache line
	// that every lookup, on every client goroutine, reads runs from.
	_       [64]byte
	dec     decodeCounters
	checked []atomic.Uint64 // one bit per block: its CRC has passed

	data  []byte
	unmap func([]byte) error
	gate  pinGate
}

// OpenCompressed opens an index file over g, decoding block directories
// but no payload. The file must have been produced by Save from an
// index built on an identical graph; the label vocabulary is verified,
// as in Load.
func OpenCompressed(path string, g *graph.Graph) (*CompressedIndex, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	c, err := parseImage(data, g)
	if err != nil {
		if unmap != nil {
			unmap(data)
		}
		return nil, fmt.Errorf("pathindex: opening %s: %w", path, err)
	}
	c.data = data
	c.unmap = unmap
	return c, nil
}

// sectionBounds validates that [off, off+length) lies inside a file of
// the given size, guarding against overflow.
func sectionBounds(name string, off, length, size uint64) error {
	if off > size || length > size-off {
		return corrupt("%s section [%d, +%d) exceeds file size %d (truncated file?)", name, off, length, size)
	}
	return nil
}

// parseImage builds a CompressedIndex over a complete index file image,
// validating everything but the block payloads (see the format comment
// for when those are checked). data must stay alive and unmodified for
// the lifetime of the returned index.
func parseImage(data []byte, g *graph.Graph) (*CompressedIndex, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("pathindex: graph must be frozen")
	}
	le := binary.LittleEndian
	if len(data) < 8 {
		return nil, corrupt("index header truncated: file is %d bytes", len(data))
	}
	if string(data[0:4]) != magic {
		return nil, corrupt("bad magic %q", data[0:4])
	}
	// The version comes before the header-length check: a short file of
	// a retired version is still told to rebuild.
	if v := le.Uint32(data[4:]); v != formatVersion {
		return nil, fmt.Errorf("pathindex: index format v%d is not readable (only v%d is): %w", v, formatVersion, ErrFormatVersion)
	}
	if len(data) < headerSize {
		return nil, corrupt("header truncated: file is %d bytes, need %d", len(data), headerSize)
	}
	if ps := le.Uint32(data[12:]); ps < 512 || ps > 1<<20 || ps&(ps-1) != 0 {
		return nil, corrupt("implausible page size %d", ps)
	}
	k := int(le.Uint32(data[16:]))
	if k < 1 || k > maxSaneK {
		return nil, corrupt("implausible locality parameter k=%d", k)
	}
	numLabels := int(le.Uint32(data[20:]))
	numPaths := int(le.Uint32(data[24:]))
	entries := le.Uint64(data[32:])
	pathsK := le.Uint64(data[40:])
	labelsOff, labelsLen := le.Uint64(data[48:]), le.Uint64(data[56:])
	dirOff, dirLen := le.Uint64(data[64:]), le.Uint64(data[72:])
	dataOff, dataLen := le.Uint64(data[80:]), le.Uint64(data[88:])

	size := uint64(len(data))
	if err := sectionBounds("labels", labelsOff, labelsLen, size); err != nil {
		return nil, err
	}
	if err := sectionBounds("directory", dirOff, dirLen, size); err != nil {
		return nil, err
	}
	if err := sectionBounds("data", dataOff, dataLen, size); err != nil {
		return nil, err
	}
	rs := uint64(recSize(k))
	if dirLen != uint64(numPaths)*rs {
		return nil, corrupt("directory is %d bytes, want %d for %d paths at k=%d", dirLen, uint64(numPaths)*rs, numPaths, k)
	}
	if dataOff%8 != 0 || dataOff < headerSize || labelsOff+labelsLen > dataOff || dirOff+dirLen > dataOff {
		return nil, corrupt("data section offset %d is misaligned or overlaps the metadata", dataOff)
	}
	crc := metaCRC(data[:dataOff])

	c := &CompressedIndex{
		directory: directory{g: g, k: k, ids: make(map[string]uint32, numPaths)},
		runs:      make([]compressedRun, numPaths),
	}
	dir := data[dirOff : dirOff+dirLen]
	var sum uint64 // aligned encoded bytes consumed so far
	var pairSum uint64
	blocks := 0
	for i := 0; i < numPaths; i++ {
		rec := dir[uint64(i)*rs:]
		runOff := le.Uint64(rec[0:])
		encLen := le.Uint64(rec[8:])
		count := le.Uint64(rec[16:])
		nb := int(le.Uint32(rec[24:]))
		plen := int(le.Uint32(rec[28:]))
		if plen < 1 || plen > k {
			return nil, corrupt("path %d has length %d, k=%d", i, plen, k)
		}
		p := make(Path, plen)
		for j := range p {
			d := graph.DirLabel(le.Uint32(rec[32+4*j:]))
			if int(d.Label()) >= numLabels {
				return nil, corrupt("path %d references unknown label %d", i, d.Label())
			}
			p[j] = d
		}
		// Runs must tile the data section densely in directory order; the
		// equality check rejects offsets that would alias a neighbouring
		// run's bytes.
		if runOff != dataOff+sum {
			return nil, corrupt("path %d run offset %d, want %d (runs must tile the data section)", i, runOff, dataOff+sum)
		}
		if encLen > dataLen-sum {
			return nil, corrupt("path %d run [%d, +%d bytes) exceeds data section", i, runOff, encLen)
		}
		if wantBlocks := (count + blockPairs - 1) / blockPairs; uint64(nb) != wantBlocks {
			return nil, corrupt("path %d has %d blocks, want %d for %d pairs", i, nb, wantBlocks, count)
		}
		dirBytes := uint64(nb) * blockDirEntry
		if encLen < dirBytes {
			return nil, corrupt("path %d encoded length %d cannot hold its %d-entry block directory", i, encLen, nb)
		}
		payloadLen := encLen - dirBytes
		if payloadLen > math.MaxUint32 {
			return nil, corrupt("path %d payload of %d bytes exceeds the u32 block offsets", i, payloadLen)
		}
		for _, pad := range data[runOff+encLen : min(dataOff+sum+uint64(align8(int(encLen))), dataOff+dataLen)] {
			if pad != 0 {
				return nil, corrupt("path %d run padding is not zero", i)
			}
		}
		crc = crc32.Update(crc, castagnoli, data[runOff:runOff+dirBytes])
		run := compressedRun{
			firsts:  make([]Packed, nb),
			offs:    make([]uint32, nb+1),
			tails:   make([]uint32, nb),
			counts:  make([]uint32, nb),
			crcs:    make([]uint32, nb),
			payload: data[runOff+dirBytes : runOff+encLen],
			n:       int(count),
			ctr:     &c.dec,
			bit0:    blocks,
		}
		var blockPairSum uint64
		for b := 0; b < nb; b++ {
			ent := data[runOff+uint64(b)*blockDirEntry:]
			run.firsts[b] = Packed(le.Uint64(ent[0:]))
			run.offs[b] = le.Uint32(ent[8:])
			run.counts[b] = uint32(le.Uint16(ent[12:]))
			run.tails[b] = uint32(le.Uint16(ent[14:])) // the trailer's length, until the offsets are known
			run.crcs[b] = le.Uint32(ent[16:])
			if b > 0 && run.firsts[b] <= run.firsts[b-1] {
				return nil, corrupt("path %d block %d first pair out of order", i, b)
			}
			if uint64(run.offs[b]) > payloadLen || (b > 0 && run.offs[b] < run.offs[b-1]) {
				return nil, corrupt("path %d block %d payload offset %d out of range", i, b, run.offs[b])
			}
			cnt := run.counts[b]
			if cnt < 1 || cnt > blockPairs {
				return nil, corrupt("path %d block %d holds %d pairs, want 1..%d", i, b, cnt, blockPairs)
			}
			if b < nb-1 && cnt != blockPairs {
				return nil, corrupt("path %d block %d is short (%d pairs) but not last", i, b, cnt)
			}
			blockPairSum += uint64(cnt)
		}
		if nb > 0 && run.offs[0] != 0 {
			return nil, corrupt("path %d first block payload offset %d, want 0", i, run.offs[0])
		}
		run.offs[nb] = uint32(payloadLen)
		for b := 0; b < nb; b++ {
			// Every delta takes at least one byte, so a block of c pairs
			// needs c−1 chain bytes; a count the chain cannot hold would
			// otherwise size decode buffers far past the file.
			have := run.offs[b+1] - run.offs[b]
			if run.tails[b] > have || have-run.tails[b] < run.counts[b]-1 {
				return nil, corrupt("path %d block %d claims %d pairs and a %d-byte trailer in %d bytes", i, b, run.counts[b], run.tails[b], have)
			}
			run.tails[b] = run.offs[b+1] - run.tails[b]
		}
		if blockPairSum != count {
			return nil, corrupt("path %d blocks sum to %d pairs, directory claims %d", i, blockPairSum, count)
		}
		if _, dup := c.ids[p.Key()]; dup {
			return nil, corrupt("duplicate path %d in directory", i)
		}
		c.add(p, int(count))
		c.runs[i] = run
		sum += uint64(align8(int(encLen)))
		pairSum += count
		blocks += nb
	}
	if sum != dataLen {
		return nil, corrupt("runs tile %d data bytes, header claims %d", sum, dataLen)
	}
	if pairSum != entries {
		return nil, corrupt("directory sums to %d entries, header claims %d", pairSum, entries)
	}
	if want := le.Uint32(data[28:]); crc != want {
		return nil, corrupt("metadata checksum %08x, header records %08x", crc, want)
	}

	// The metadata is what was written; now check it against the graph.
	if numLabels != g.NumLabels() {
		return nil, fmt.Errorf("%w: index has %d labels, graph has %d", ErrGraphMismatch, numLabels, g.NumLabels())
	}
	sec := data[labelsOff : labelsOff+labelsLen]
	off := 0
	for i := 0; i < numLabels; i++ {
		if off+4 > len(sec) {
			return nil, corrupt("label table truncated at label %d", i)
		}
		nameLen := int(le.Uint32(sec[off:]))
		if nameLen > len(sec)-off-4 {
			return nil, corrupt("label %d name length %d exceeds label table", i, nameLen)
		}
		name := string(sec[off+4 : off+4+nameLen])
		if g.LabelName(graph.LabelID(i)) != name {
			return nil, fmt.Errorf("%w: label %d is %q in index, %q in graph", ErrGraphMismatch, i, name, g.LabelName(graph.LabelID(i)))
		}
		off += 4 + nameLen
	}
	c.checked = make([]atomic.Uint64, (blocks+63)/64)
	for i := range c.runs {
		r := &c.runs[i]
		r.checked = c.checked
		if p := c.paths[i]; len(p) == 1 && len(r.counts) > 0 {
			// The one payload read of an open: the last block of each
			// length-1 run, for the graph check, CRC included.
			last, err := r.last()
			if err != nil {
				return nil, fmt.Errorf("path %d: %w", i, err)
			}
			if err := c.checkNodeRange(p, last); err != nil {
				return nil, err
			}
		}
	}
	c.stats = BuildStats{
		Entries:     int(entries),
		LabelPaths:  numPaths,
		PathsKCount: int(pathsK),
	}
	return c, nil
}

// VerifyBlocks decodes every block of every run, checking its CRC,
// varint well-formedness, strict pair ascent within and across blocks,
// and its restart trailer — the full-payload verification
// OpenCompressed leaves to each block's first read.
func (c *CompressedIndex) VerifyBlocks() error {
	buf := make([]Packed, 0, blockPairs)
	for pid := range c.runs {
		r := &c.runs[pid]
		var last Packed
		for b := range r.counts {
			dec, err := r.decode(b, buf[:0])
			if err == nil {
				err = r.checkRestarts(b, dec)
			}
			if err != nil {
				return fmt.Errorf("pathindex: path %d: %w", pid, err)
			}
			if b > 0 && dec[0] <= last {
				return corrupt("path %d block %d starts at or below the previous block's last pair", pid, b)
			}
			last = dec[len(dec)-1]
		}
	}
	return nil
}

// Materialize decodes the whole index into a fresh heap-backed Index
// (verifying the payload as a side effect): Load's decode, and the
// compressed case of the package-level Materialize.
func (c *CompressedIndex) Materialize() (*Index, error) {
	ix := newIndex(c.g, c.k)
	for pid := range c.runs {
		rel, err := c.runs[pid].decodeAll(make([]Packed, 0, c.counts[pid]))
		if err != nil {
			return nil, fmt.Errorf("pathindex: path %d: %w", pid, err)
		}
		ix.addRun(c.paths[pid], rel)
	}
	ix.stats = c.stats
	return ix, nil
}

// Relation implements Storage by decoding the full run into a fresh
// slice — an O(|p(G)|) allocation. Prefer Blocks, the decode-on-read
// cursor, on hot paths. A corrupt run reads as nil, which the callers
// that know its pair count (Materialize) report.
func (c *CompressedIndex) Relation(p Path) []Packed {
	id, ok := c.ids[p.Key()]
	if !ok {
		return nil
	}
	rel, _ := c.runs[id].decodeAll(make([]Packed, 0, c.counts[id]))
	return rel
}

// Blocks implements Storage: the cursor decodes one block at a time
// into a reused buffer (each returned block is valid until the next
// call on the iterator).
func (c *CompressedIndex) Blocks(p Path) *BlockIterator {
	bi := &BlockIterator{size: DefaultBlockSize}
	if id, ok := c.ids[p.Key()]; ok && c.runs[id].n > 0 {
		bi.cr = &c.runs[id]
	}
	return bi
}

// SrcRange implements Storage through a fresh cursor, which decodes
// only the blocks holding pairs with the given source. The result is
// freshly decoded, unlike the zero-copy sub-slices of a heap run.
func (c *CompressedIndex) SrcRange(p Path, src graph.NodeID) []Packed {
	return c.Blocks(p).SrcRun(src)
}

// DecodeStats returns the storage-lifetime decompression counters:
// blocks decoded, wholly or up to the pairs a lookup read, and
// compressed bytes (payload + block-directory) consumed by the runs'
// cursors.
func (c *CompressedIndex) DecodeStats() (blocks, bytes int64) {
	return c.dec.blocks.Load(), c.dec.bytes.Load()
}

// Pin implements Pinner: it registers a reader, failing with ErrClosed
// once Close has begun. Every successful Pin must be paired with Unpin.
func (c *CompressedIndex) Pin() error { return c.gate.pin() }

// Unpin implements Pinner, releasing a reader registered by Pin.
func (c *CompressedIndex) Unpin() { c.gate.unpin() }

// Close releases the file mapping. New Pins fail with ErrClosed, Close
// blocks until in-flight readers have called Unpin, and then the image is
// unmapped exactly once; Close is idempotent, and concurrent Closes all
// wait.
func (c *CompressedIndex) Close() error {
	var data []byte
	c.gate.shutdown(func() {
		data = c.data
		c.data = nil
	})
	if data == nil {
		return nil
	}
	if c.unmap != nil {
		return c.unmap(data)
	}
	return nil
}

// FileBytes returns the size of the underlying file image (0 after
// Close).
func (c *CompressedIndex) FileBytes() int { return len(c.data) }

// OpenStorage opens a saved index file for serving: OpenCompressed
// behind the Storage interface.
func OpenStorage(path string, g *graph.Graph) (Storage, error) {
	c, err := OpenCompressed(path, g)
	if err != nil {
		return nil, err // a literal nil: a nil *CompressedIndex would not compare equal to nil
	}
	return c, nil
}

// Load reads an index file and decodes it onto the heap, verifying every
// block of varint payload on the way — the entry point for files of
// untrusted provenance and for callers that want heap runs (spill
// recovery, BuildWithIndex). g must be the graph the index was built
// from, checked as in OpenCompressed.
func Load(path string, g *graph.Graph) (*Index, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := parseImage(data, g)
	if err != nil {
		return nil, fmt.Errorf("pathindex: loading %s: %w", path, err)
	}
	ix, err := c.Materialize()
	if err != nil {
		return nil, fmt.Errorf("pathindex: loading %s: %w", path, err)
	}
	return ix, nil
}

var (
	_ Storage = (*CompressedIndex)(nil)
	_ Pinner  = (*CompressedIndex)(nil)
)
