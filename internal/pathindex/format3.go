package pathindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync/atomic"

	"repro/internal/graph"
)

// On-disk index format v3, the one index file format: a page-aligned
// header, label table, and path directory, then a data section in which
// every sorted packed run is block-compressed. A run is split into blocks
// of at most v3BlockPairs pairs; a block stores its first pair verbatim
// in a per-run block directory and the remaining pairs as uvarint deltas
// between consecutive packed words (strict ascent makes every delta ≥ 1,
// so a zero delta on decode is proof of corruption). Dense runs — whose
// pairs share sources and differ in small dst steps — compress to 1–2
// bytes per pair against 8 raw. All integers are little-endian; varints
// are the unsigned LEB128 of encoding/binary.
//
//	page 0          fixed-width 96-byte header (rest of the page zero):
//	                  [0:4)   magic "PIDX"
//	                  [4:8)   version u32 = 3
//	                  [8:12)  flags u32 (reserved, zero)
//	                  [12:16) page size u32 (4096)
//	                  [16:20) k u32
//	                  [20:24) label count u32
//	                  [24:28) path count u32
//	                  [28:32) reserved u32
//	                  [32:40) entry count u64
//	                  [40:48) |paths_k(G)| u64 (0 when skipped at build).
//	                          In a tier's spill file: the tier's own
//	                          distinct non-identity pair count (0 in
//	                          files written before spills carried it)
//	                  [48:64) labels section offset u64, length u64
//	                  [64:80) directory offset u64, length u64
//	                  [80:96) data offset u64, length u64 (the aligned
//	                          sum of run encodings)
//	labels section  per label: u32 name length + name bytes, checked
//	                against the graph the index is attached to
//	directory       one fixed-width record per path id, 8-byte aligned:
//	                  [0:8)      run offset u64 (absolute, 8-aligned)
//	                  [8:16)     encoded length u64 (block dir + payload)
//	                  [16:24)    pair count u64
//	                  [24:28)    block count u32
//	                  [28:32)    path length u32
//	                  [32:32+4k) k slots of u32 DirLabel
//	data section    page-aligned; runs tile it densely in directory
//	                order at 8-byte-aligned offsets. Each run is its
//	                block directory (block count × 16-byte entries:
//	                first pair u64, payload-relative byte offset u32,
//	                pair count u32) followed by the concatenated varint
//	                payloads of all blocks
//
// Format versions 1 and 2 (an entry stream and an uncompressed mmap
// layout) share the magic and version field and are rejected by name. An
// index is derived data — a pure function of the graph file and k — so
// rebuilding it with `rpq build` is the migration.
//
// Trust model: OpenCompressed validates the header, label table,
// directory, and every block directory (cost proportional to the block
// count, not the payload), but trusts the varint payload itself; Load
// decodes and therefore verifies everything, and VerifyBlocks runs the
// full decode on demand for a mapped index of untrusted provenance.
const (
	magic      = "PIDX"
	v3Version  = 3
	pageSize   = 4096
	headerSize = 96
	// maxSaneK bounds the locality parameter accepted from disk; real
	// indexes use single digits, so anything larger marks a corrupt or
	// hostile file before it can drive huge allocations.
	maxSaneK = 1024
	// v3BlockPairs is the maximum number of pairs per compressed block —
	// the decode granularity of every scan. It matches DefaultBlockSize
	// so one decoded block feeds the executor's block iterator directly.
	v3BlockPairs = DefaultBlockSize
	// v3BlockDirEntry is the size of one block-directory entry.
	v3BlockDirEntry = 16
)

func align8(n int) int    { return (n + 7) &^ 7 }
func alignPage(n int) int { return (n + pageSize - 1) &^ (pageSize - 1) }

// v3RecSize returns the directory record width for locality parameter k.
func v3RecSize(k int) int { return align8(32 + 4*k) }

// uvarintLen returns the encoded length of v in bytes.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// v3RunSize returns the encoded byte length (block directory + varint
// payload) and block count of one sorted run.
func v3RunSize(rel []Packed) (encLen, blocks int) {
	for off := 0; off < len(rel); off += v3BlockPairs {
		end := off + v3BlockPairs
		if end > len(rel) {
			end = len(rel)
		}
		blocks++
		encLen += v3BlockDirEntry
		for i := off + 1; i < end; i++ {
			encLen += uvarintLen(uint64(rel[i]) - uint64(rel[i-1]))
		}
	}
	return encLen, blocks
}

// appendV3Run appends the v3 encoding of rel (block directory, then
// varint payload) to buf.
func appendV3Run(buf []byte, rel []Packed) []byte {
	nb := (len(rel) + v3BlockPairs - 1) / v3BlockPairs
	dirStart := len(buf)
	buf = append(buf, make([]byte, nb*v3BlockDirEntry)...)
	payloadStart := len(buf)
	le := binary.LittleEndian
	for b := 0; b < nb; b++ {
		off := b * v3BlockPairs
		end := off + v3BlockPairs
		if end > len(rel) {
			end = len(rel)
		}
		ent := buf[dirStart+b*v3BlockDirEntry:]
		le.PutUint64(ent[0:], uint64(rel[off]))
		le.PutUint32(ent[8:], uint32(len(buf)-payloadStart))
		le.PutUint32(ent[12:], uint32(end-off))
		for i := off + 1; i < end; i++ {
			buf = binary.AppendUvarint(buf, uint64(rel[i])-uint64(rel[i-1]))
		}
	}
	return buf
}

// WriteV3To serializes the index in format v3 and returns the number of
// bytes written. The output is a valid input for OpenCompressed,
// OpenStorage, and Load.
func (ix *Index) WriteV3To(w io.Writer) (int64, error) {
	labels := ix.g.Labels()
	labelsLen := 0
	for _, name := range labels {
		labelsLen += 4 + len(name)
	}
	recSize := v3RecSize(ix.k)
	labelsOff := pageSize
	dirOff := align8(labelsOff + labelsLen)
	dirLen := len(ix.paths) * recSize
	dataOff := alignPage(dirOff + dirLen)

	// Pass 1: per-run encoded sizes, so the directory can be written
	// before any payload and the payload streamed run by run.
	entries := 0
	dataLen := 0
	encLens := make([]int, len(ix.relations))
	blockCounts := make([]int, len(ix.relations))
	for pid, rel := range ix.relations {
		entries += len(rel)
		encLen, nb := v3RunSize(rel)
		encLens[pid], blockCounts[pid] = encLen, nb
		dataLen += align8(encLen)
	}

	le := binary.LittleEndian
	head := make([]byte, dataOff)
	copy(head, magic)
	le.PutUint32(head[4:], v3Version)
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
	le.PutUint64(head[88:], uint64(dataLen))

	off := labelsOff
	for _, name := range labels {
		le.PutUint32(head[off:], uint32(len(name)))
		copy(head[off+4:], name)
		off += 4 + len(name)
	}

	runOff := uint64(dataOff)
	for pid, p := range ix.paths {
		rec := head[dirOff+pid*recSize:]
		le.PutUint64(rec[0:], runOff)
		le.PutUint64(rec[8:], uint64(encLens[pid]))
		le.PutUint64(rec[16:], uint64(len(ix.relations[pid])))
		le.PutUint32(rec[24:], uint32(blockCounts[pid]))
		le.PutUint32(rec[28:], uint32(len(p)))
		for j, d := range p {
			le.PutUint32(rec[32+4*j:], uint32(d))
		}
		runOff += uint64(align8(encLens[pid]))
	}

	var n int64
	m, err := w.Write(head)
	n += int64(m)
	if err != nil {
		return n, err
	}
	// Pass 2: encode and stream each run, padded to its aligned slot.
	buf := make([]byte, 0, 1<<20)
	for _, rel := range ix.relations {
		buf = appendV3Run(buf[:0], rel)
		for len(buf)%8 != 0 {
			buf = append(buf, 0)
		}
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// SaveV3 writes the index to a file in format v3 (the block-compressed
// layout OpenCompressed consumes).
func (ix *Index) SaveV3(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteV3To(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveV3Atomic is SaveV3 through a temp file, fsync, and rename, so a
// crash mid-write never leaves a half-written file under the final name.
// Spills and checkpoints use it: the WAL record that names the file is
// appended only after it returns.
func (ix *Index) SaveV3Atomic(path string) error {
	tmp := path + ".tmp"
	if err := ix.saveV3Sync(tmp); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// saveV3Sync writes the index at path in format v3 and fsyncs it.
func (ix *Index) saveV3Sync(path string) error {
	return createSync(path, func(f *os.File) error {
		_, err := ix.WriteV3To(f)
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
// open) plus the varint payload aliasing the file image.
type compressedRun struct {
	firsts  []Packed // block id -> first pair, strictly ascending
	offs    []uint32 // block id -> payload byte offset; len = blocks+1
	counts  []uint32 // block id -> pairs in the block (1..v3BlockPairs)
	payload []byte   // concatenated varint deltas, aliasing the file
	n       int      // total pairs
	ctr     *decodeCounters
}

// decode appends block b's pairs to dst, checked as blockReader checks
// them.
func (r *compressedRun) decode(b int, dst []Packed) ([]Packed, error) {
	br := r.reader(b)
	dst, err := br.read(append(slices.Grow(dst, int(r.counts[b])), br.prev), ^Packed(0))
	if err != nil {
		return nil, fmt.Errorf("pathindex: v3 block %d: %w", b, err)
	}
	return dst, nil
}

// reader counts a decode of block b and returns a reader positioned
// after its first pair, which the block directory holds.
func (r *compressedRun) reader(b int) blockReader {
	r.ctr.blocks.Add(1)
	r.ctr.bytes.Add(v3BlockDirEntry)
	return blockReader{
		ctr:  r.ctr,
		rest: r.payload[r.offs[b]:r.offs[b+1]],
		prev: r.firsts[b],
		left: int(r.counts[b]) - 1,
	}
}

// blockReader reads one block's varint deltas front to back: rest is
// the unread payload, prev the pair read last and left the pairs still
// to read. Every read is bounds- and order-checked: a short or overlong
// varint, a zero delta (a duplicate pair), a wrapping delta, and payload
// bytes left over after the block's last pair are errors, never bad
// data.
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
			return nil, fmt.Errorf("bad or non-ascending delta with %d pairs left", left)
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
			return fmt.Errorf("bad or non-ascending delta with %d pairs left", left)
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
// payload left after its last pair, or pairs left after the greatest
// packed value, which no pair can follow.
func (br *blockReader) check() error {
	switch {
	case br.left == 0 && len(br.rest) != 0:
		return fmt.Errorf("%d trailing payload bytes", len(br.rest))
	case br.left > 0 && br.prev == ^Packed(0):
		return fmt.Errorf("%d pairs after the greatest pair", br.left)
	}
	return nil
}

// last returns the greatest pair of a non-empty run by summing the last
// block's deltas — no buffer, and no decode counted as scan work.
func (r *compressedRun) last() (Packed, error) {
	b := len(r.counts) - 1
	v := uint64(r.firsts[b])
	for p := r.payload[r.offs[b]:r.offs[b+1]]; len(p) > 0; {
		d, n := binary.Uvarint(p)
		if n <= 0 {
			return 0, fmt.Errorf("pathindex: v3 block %d: bad varint", b)
		}
		v += d
		p = p[n:]
	}
	return Packed(v), nil
}

// decodeAll decodes the whole run, additionally verifying cross-block
// ascent (each block's first pair must exceed its predecessor's last).
func (r *compressedRun) decodeAll(dst []Packed) ([]Packed, error) {
	for b := range r.counts {
		if b > 0 && len(dst) > 0 && r.firsts[b] <= dst[len(dst)-1] {
			return nil, fmt.Errorf("pathindex: v3 block %d starts at or below the previous block's last pair", b)
		}
		var err error
		dst, err = r.decode(b, dst)
		if err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// CompressedIndex is a read-only k-path index served directly from a
// format-v3 file image: on unix hosts a read-only memory mapping,
// elsewhere (or when mmap fails) an in-memory copy of the file. Opening
// decodes only the header, label table, directory, and per-run block
// directories — cost proportional to the block count, never to the
// payload. Every read goes through the one cursor of a run (see
// BlockIterator): a scan decodes one block at a time into a reused
// buffer, a seek or prefix lookup skips to the block holding its key by
// the block directory and decodes that block only as far as it reads,
// keeping it for the lookups after it, and Relation decodes the full
// run into a fresh slice.
//
// A CompressedIndex satisfies Storage and is safe for any number of
// concurrent readers. Its Pinner half guards the mapping: the engine
// pins the index around every evaluation, and Close marks the index
// closing (failing new Pins with ErrClosed), blocks until in-flight
// readers release their pins, and only then unmaps, so a concurrent
// Close never invalidates memory a query is scanning. Corrupt varint
// payload encountered during a trusted scan terminates that scan early
// rather than panicking; run VerifyBlocks (or load via Load, which always
// verifies) for files of untrusted provenance.
type CompressedIndex struct {
	directory
	runs []compressedRun
	// Every block decode writes dec; the pad keeps it off the cache line
	// that every lookup, on every client goroutine, reads runs from.
	_   [64]byte
	dec decodeCounters

	data  []byte
	unmap func([]byte) error
	gate  pinGate
}

// OpenCompressed opens a format-v3 index file over g, decoding block
// directories but no payload. The file must have been produced by SaveV3
// from an index built on an identical graph; the label vocabulary is
// verified, as in Load.
func OpenCompressed(path string, g *graph.Graph) (*CompressedIndex, error) {
	data, unmap, err := mapFile(path)
	if err != nil {
		return nil, err
	}
	c, err := parseV3(data, g)
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
		return fmt.Errorf("pathindex: %s section [%d, +%d) exceeds file size %d (truncated file?)", name, off, length, size)
	}
	return nil
}

// parseV3 builds a CompressedIndex over a complete format-v3 image,
// validating everything except the varint payload (see the format
// comment for the trust model). data must stay alive and unmodified for
// the lifetime of the returned index.
func parseV3(data []byte, g *graph.Graph) (*CompressedIndex, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("pathindex: graph must be frozen")
	}
	le := binary.LittleEndian
	if len(data) < 8 {
		return nil, fmt.Errorf("pathindex: index header truncated: file is %d bytes", len(data))
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("pathindex: bad magic %q", data[0:4])
	}
	// The version comes before the header-length check: a short file of
	// a retired version is still told to rebuild.
	if v := le.Uint32(data[4:]); v != v3Version {
		return nil, fmt.Errorf("pathindex: index format v%d is not readable (only v3 is); rebuild the index with `rpq build`", v)
	}
	if len(data) < headerSize {
		return nil, fmt.Errorf("pathindex: v3 header truncated: file is %d bytes, need %d", len(data), headerSize)
	}
	if ps := le.Uint32(data[12:]); ps < 512 || ps > 1<<20 || ps&(ps-1) != 0 {
		return nil, fmt.Errorf("pathindex: implausible page size %d", ps)
	}
	k := int(le.Uint32(data[16:]))
	if k < 1 || k > maxSaneK {
		return nil, fmt.Errorf("pathindex: implausible locality parameter k=%d", k)
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
	recSize := uint64(v3RecSize(k))
	if dirLen != uint64(numPaths)*recSize {
		return nil, fmt.Errorf("pathindex: directory is %d bytes, want %d for %d paths at k=%d", dirLen, uint64(numPaths)*recSize, numPaths, k)
	}
	if dataOff%8 != 0 {
		return nil, fmt.Errorf("pathindex: data section offset %d is not 8-byte aligned", dataOff)
	}

	if numLabels != g.NumLabels() {
		return nil, fmt.Errorf("pathindex: index has %d labels, graph has %d", numLabels, g.NumLabels())
	}
	sec := data[labelsOff : labelsOff+labelsLen]
	off := 0
	for i := 0; i < numLabels; i++ {
		if off+4 > len(sec) {
			return nil, fmt.Errorf("pathindex: label table truncated at label %d", i)
		}
		nameLen := int(le.Uint32(sec[off:]))
		if nameLen > len(sec)-off-4 {
			return nil, fmt.Errorf("pathindex: label %d name length %d exceeds label table", i, nameLen)
		}
		name := string(sec[off+4 : off+4+nameLen])
		if g.LabelName(graph.LabelID(i)) != name {
			return nil, fmt.Errorf("pathindex: label %d is %q in index, %q in graph", i, name, g.LabelName(graph.LabelID(i)))
		}
		off += 4 + nameLen
	}

	c := &CompressedIndex{
		directory: directory{g: g, k: k, ids: make(map[string]uint32, numPaths)},
		runs:      make([]compressedRun, numPaths),
	}
	dir := data[dirOff : dirOff+dirLen]
	var sum uint64 // aligned encoded bytes consumed so far
	var pairSum uint64
	for i := 0; i < numPaths; i++ {
		rec := dir[uint64(i)*recSize:]
		runOff := le.Uint64(rec[0:])
		encLen := le.Uint64(rec[8:])
		count := le.Uint64(rec[16:])
		nb := int(le.Uint32(rec[24:]))
		plen := int(le.Uint32(rec[28:]))
		if plen < 1 || plen > k {
			return nil, fmt.Errorf("pathindex: path %d has length %d, k=%d", i, plen, k)
		}
		p := make(Path, plen)
		for j := range p {
			d := graph.DirLabel(le.Uint32(rec[32+4*j:]))
			if int(d.Label()) >= numLabels {
				return nil, fmt.Errorf("pathindex: path %d references unknown label %d", i, d.Label())
			}
			p[j] = d
		}
		// Runs must tile the data section densely in directory order; the
		// equality check rejects offsets that would alias a neighbouring
		// run's bytes.
		if runOff != dataOff+sum {
			return nil, fmt.Errorf("pathindex: path %d run offset %d, want %d (runs must tile the data section)", i, runOff, dataOff+sum)
		}
		if encLen > dataLen-sum {
			return nil, fmt.Errorf("pathindex: path %d run [%d, +%d bytes) exceeds data section", i, runOff, encLen)
		}
		wantBlocks := int((count + v3BlockPairs - 1) / v3BlockPairs)
		if nb != wantBlocks {
			return nil, fmt.Errorf("pathindex: path %d has %d blocks, want %d for %d pairs", i, nb, wantBlocks, count)
		}
		dirBytes := uint64(nb) * v3BlockDirEntry
		if encLen < dirBytes {
			return nil, fmt.Errorf("pathindex: path %d encoded length %d cannot hold its %d-entry block directory", i, encLen, nb)
		}
		payloadLen := encLen - dirBytes
		if payloadLen > math.MaxUint32 {
			return nil, fmt.Errorf("pathindex: path %d payload of %d bytes exceeds the u32 block offsets", i, payloadLen)
		}
		run := compressedRun{
			firsts:  make([]Packed, nb),
			offs:    make([]uint32, nb+1),
			counts:  make([]uint32, nb),
			payload: data[runOff+dirBytes : runOff+encLen],
			n:       int(count),
			ctr:     &c.dec,
		}
		var blockPairs uint64
		for b := 0; b < nb; b++ {
			ent := data[runOff+uint64(b)*v3BlockDirEntry:]
			run.firsts[b] = Packed(le.Uint64(ent[0:]))
			run.offs[b] = le.Uint32(ent[8:])
			run.counts[b] = le.Uint32(ent[12:])
			if b > 0 && run.firsts[b] <= run.firsts[b-1] {
				return nil, fmt.Errorf("pathindex: path %d block %d first pair out of order", i, b)
			}
			if uint64(run.offs[b]) > payloadLen || (b > 0 && run.offs[b] < run.offs[b-1]) {
				return nil, fmt.Errorf("pathindex: path %d block %d payload offset %d out of range", i, b, run.offs[b])
			}
			cnt := run.counts[b]
			if cnt < 1 || cnt > v3BlockPairs {
				return nil, fmt.Errorf("pathindex: path %d block %d holds %d pairs, want 1..%d", i, b, cnt, v3BlockPairs)
			}
			if b < nb-1 && cnt != v3BlockPairs {
				return nil, fmt.Errorf("pathindex: path %d block %d is short (%d pairs) but not last", i, b, cnt)
			}
			blockPairs += uint64(cnt)
		}
		if nb > 0 && run.offs[0] != 0 {
			return nil, fmt.Errorf("pathindex: path %d first block payload offset %d, want 0", i, run.offs[0])
		}
		run.offs[nb] = uint32(payloadLen)
		for b := 0; b < nb; b++ {
			// Every delta takes at least one byte, so a block of c pairs
			// needs c−1 payload bytes; a count the payload cannot hold
			// would otherwise size decode buffers far past the file.
			if have := run.offs[b+1] - run.offs[b]; have < run.counts[b]-1 {
				return nil, fmt.Errorf("pathindex: path %d block %d claims %d pairs in %d payload bytes", i, b, run.counts[b], have)
			}
		}
		if blockPairs != count {
			return nil, fmt.Errorf("pathindex: path %d blocks sum to %d pairs, directory claims %d", i, blockPairs, count)
		}
		key := p.Key()
		if _, dup := c.ids[key]; dup {
			return nil, fmt.Errorf("pathindex: duplicate path %d in directory", i)
		}
		if plen == 1 && nb > 0 {
			// The one payload read of an open: the last block of each
			// length-1 run, for the graph check.
			last, err := run.last()
			if err != nil {
				return nil, fmt.Errorf("pathindex: path %d: %w", i, err)
			}
			if err := c.checkNodeRange(p, last); err != nil {
				return nil, err
			}
		}
		c.add(p, int(count))
		c.runs[i] = run
		sum += uint64(align8(int(encLen)))
		pairSum += count
	}
	if sum != dataLen {
		return nil, fmt.Errorf("pathindex: runs tile %d data bytes, header claims %d", sum, dataLen)
	}
	if pairSum != entries {
		return nil, fmt.Errorf("pathindex: directory sums to %d entries, header claims %d", pairSum, entries)
	}
	c.stats = BuildStats{
		Entries:     int(entries),
		LabelPaths:  numPaths,
		PathsKCount: int(pathsK),
	}
	return c, nil
}

// VerifyBlocks decodes every block of every run, checking varint
// well-formedness and strict pair ascent within and across blocks — the
// full-payload verification OpenCompressed deliberately skips to keep
// open cost proportional to the block directories.
func (c *CompressedIndex) VerifyBlocks() error {
	buf := make([]Packed, 0, v3BlockPairs)
	for pid := range c.runs {
		r := &c.runs[pid]
		var last Packed
		for b := range r.counts {
			dec, err := r.decode(b, buf[:0])
			if err != nil {
				return fmt.Errorf("pathindex: path %d: %w", pid, err)
			}
			if b > 0 && dec[0] <= last {
				return fmt.Errorf("pathindex: path %d block %d starts at or below the previous block's last pair", pid, b)
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
// cursor, on hot paths. A corrupt payload yields the pairs decoded
// before the corruption.
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
	c, err := parseV3(data, g)
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
