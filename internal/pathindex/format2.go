package pathindex

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/graph"
)

// On-disk index format v2: a single page-aligned file laid out so that a
// reader can serve every index operation directly over the raw bytes —
// open cost is proportional to the directory, never to the relation
// payload. All integers are little-endian.
//
//	page 0          fixed-width 96-byte header (rest of the page zero):
//	                  [0:4)   magic "PIDX"
//	                  [4:8)   version u32 = 2
//	                  [8:12)  flags u32 (reserved, zero)
//	                  [12:16) page size u32 (4096)
//	                  [16:20) k u32
//	                  [20:24) label count u32
//	                  [24:28) path count u32
//	                  [28:32) reserved u32
//	                  [32:40) entry count u64
//	                  [40:48) |paths_k(G)| u64 (0 when skipped at build)
//	                  [48:64) labels section offset u64, length u64
//	                  [64:80) directory offset u64, length u64
//	                  [80:96) data offset u64, length u64
//	labels section  per label: u32 name length + name bytes (the graph
//	                vocabulary check, as in v1)
//	directory       one fixed-width record per path id, 8-byte aligned:
//	                  [0:8)      run offset u64 (absolute)
//	                  [8:16)     pair count u64
//	                  [16:20)    path length u32
//	                  [20:20+4k) k slots of u32 DirLabel (unused slots 0)
//	data section    page-aligned; each relation is its sorted packed run
//	                of count×8 bytes, exactly the []Packed layout the
//	                in-memory index uses, at an 8-byte-aligned offset
//
// Because the data section stores relations in the index's native packed
// encoding, a little-endian host can reinterpret each run in place
// ([]byte → []Packed) and run BlockIterator, SrcRange, Relation, and
// Contains over the mapping with no decode step; see OpenMapped.
const (
	v2Version    = 2
	v2PageSize   = 4096
	v2HeaderSize = 96
	// maxSaneK bounds the locality parameter accepted from disk; real
	// indexes use single digits, so anything larger marks a corrupt or
	// hostile file before it can drive huge allocations.
	maxSaneK = 1024
)

func align8(n int) int    { return (n + 7) &^ 7 }
func alignPage(n int) int { return (n + v2PageSize - 1) &^ (v2PageSize - 1) }

// v2RecSize returns the directory record width for locality parameter k.
func v2RecSize(k int) int { return align8(20 + 4*k) }

// hostLittleEndian reports whether []byte→[]Packed reinterpretation
// matches the file encoding; big-endian hosts fall back to copy-decoding
// each run.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// castRun reinterprets a run of little-endian u64 words as a []Packed
// without copying when the host layout allows it, and decodes a fresh
// slice otherwise (big-endian host or unaligned buffer).
func castRun(b []byte) []Packed {
	if len(b) == 0 {
		return nil
	}
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%8 == 0 {
		return unsafe.Slice((*Packed)(unsafe.Pointer(&b[0])), len(b)/8)
	}
	out := make([]Packed, len(b)/8)
	for i := range out {
		out[i] = Packed(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

// WriteV2To serializes the index in format v2 and returns the number of
// bytes written. The output is a valid input for OpenMapped.
func (ix *Index) WriteV2To(w io.Writer) (int64, error) {
	labels := ix.g.Labels()
	labelsLen := 0
	for _, name := range labels {
		labelsLen += 4 + len(name)
	}
	recSize := v2RecSize(ix.k)
	labelsOff := v2PageSize
	dirOff := align8(labelsOff + labelsLen)
	dirLen := len(ix.paths) * recSize
	dataOff := alignPage(dirOff + dirLen)
	entries := 0
	for _, rel := range ix.relations {
		entries += len(rel)
	}
	dataLen := 8 * entries

	le := binary.LittleEndian
	head := make([]byte, dataOff)
	copy(head, magic)
	le.PutUint32(head[4:], v2Version)
	le.PutUint32(head[12:], v2PageSize)
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
		le.PutUint64(rec[8:], uint64(len(ix.relations[pid])))
		le.PutUint32(rec[16:], uint32(len(p)))
		for j, d := range p {
			le.PutUint32(rec[20+4*j:], uint32(d))
		}
		runOff += uint64(8 * len(ix.relations[pid]))
	}

	var n int64
	m, err := w.Write(head)
	n += int64(m)
	if err != nil {
		return n, err
	}
	buf := make([]byte, 0, 1<<20)
	for _, rel := range ix.relations {
		for _, pr := range rel {
			buf = le.AppendUint64(buf, uint64(pr))
			if len(buf) == cap(buf) {
				m, err := w.Write(buf)
				n += int64(m)
				if err != nil {
					return n, err
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// SaveV2 writes the index to a file in format v2 (the mmap-able layout
// OpenMapped consumes).
func (ix *Index) SaveV2(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteV2To(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Migrate rewrites a saved index file (any format version) as the
// current serving format — v3, block-compressed — at dst. g must be the
// graph the index was built from, exactly as for Load.
func Migrate(src, dst string, g *graph.Graph) error {
	ix, err := Load(src, g)
	if err != nil {
		return fmt.Errorf("pathindex: migrating %s: %w", src, err)
	}
	return ix.SaveV3(dst)
}

// sectionBounds validates that [off, off+length) lies inside a file of
// the given size, guarding against overflow.
func sectionBounds(name string, off, length, size uint64) error {
	if off > size || length > size-off {
		return fmt.Errorf("pathindex: v2 %s section [%d, +%d) exceeds file size %d (truncated file?)", name, off, length, size)
	}
	return nil
}

// parseV2 builds an index over a complete format-v2 image, aliasing the
// relation runs in data (zero-copy on little-endian hosts). Only the
// header, label table, and directory are touched, so the cost is
// independent of the relation payload. data must stay alive and
// unmodified for the lifetime of the returned index.
func parseV2(data []byte, g *graph.Graph) (*Index, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("pathindex: graph must be frozen")
	}
	le := binary.LittleEndian
	if len(data) < v2HeaderSize {
		return nil, fmt.Errorf("pathindex: v2 header truncated: file is %d bytes, need %d", len(data), v2HeaderSize)
	}
	if string(data[0:4]) != magic {
		return nil, fmt.Errorf("pathindex: bad magic %q", data[0:4])
	}
	if v := le.Uint32(data[4:]); v != v2Version {
		if v == 1 {
			return nil, fmt.Errorf("pathindex: format v1 file: load it with pathindex.Load or rewrite it with pathindex.Migrate")
		}
		if v == v3Version {
			return nil, fmt.Errorf("pathindex: format v3 file: open it with pathindex.OpenCompressed (or pathindex.OpenStorage)")
		}
		return nil, fmt.Errorf("pathindex: unsupported index version %d (supported: 1, 2, 3)", v)
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
	if dataLen != 8*entries {
		return nil, fmt.Errorf("pathindex: data section is %d bytes, header claims %d entries", dataLen, entries)
	}
	recSize := uint64(v2RecSize(k))
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

	ix := newIndex(g, k)
	dir := data[dirOff : dirOff+dirLen]
	var sum uint64
	for i := 0; i < numPaths; i++ {
		rec := dir[uint64(i)*recSize:]
		runOff := le.Uint64(rec[0:])
		count := le.Uint64(rec[8:])
		plen := int(le.Uint32(rec[16:]))
		if plen < 1 || plen > k {
			return nil, fmt.Errorf("pathindex: path %d has length %d, k=%d", i, plen, k)
		}
		p := make(Path, plen)
		for j := range p {
			d := graph.DirLabel(le.Uint32(rec[20+4*j:]))
			if int(d.Label()) >= numLabels {
				return nil, fmt.Errorf("pathindex: path %d references unknown label %d", i, d.Label())
			}
			p[j] = d
		}
		// Runs must tile the data section densely in directory order —
		// exactly what the writer produces. The equality check (not just
		// a bounds check) means a corrupted offset cannot silently alias
		// a run into its neighbour's pairs.
		if runOff != dataOff+8*sum {
			return nil, fmt.Errorf("pathindex: path %d run offset %d, want %d (runs must tile the data section)", i, runOff, dataOff+8*sum)
		}
		if count > dataLen/8-sum {
			return nil, fmt.Errorf("pathindex: path %d run [%d, +%d pairs) exceeds data section", i, runOff, count)
		}
		key := p.Key()
		if _, dup := ix.ids[key]; dup {
			return nil, fmt.Errorf("pathindex: duplicate path %d in directory", i)
		}
		rel := castRun(data[runOff : runOff+8*count])
		if plen == 1 && count > 0 {
			if err := ix.checkNodeRange(p, rel[count-1]); err != nil {
				return nil, err
			}
		}
		ix.addRun(p, rel)
		sum += count
	}
	if sum != entries {
		return nil, fmt.Errorf("pathindex: directory sums to %d entries, header claims %d", sum, entries)
	}
	ix.stats.PathsKCount = int(pathsK)
	return ix, nil
}

// VerifyRuns checks the one invariant parseV2 deliberately skips: every
// relation must be a strictly ascending packed run (binary searches and
// merge joins rely on it). The cost is one pass over the payload, which
// is why OpenMapped — whose contract is directory-only open time — does
// not call it; Load/ReadFrom do, matching the v1 loader's
// out-of-order-entry rejection, and a caller holding a MappedIndex of
// untrusted provenance can invoke it explicitly.
func (ix *Index) VerifyRuns() error {
	for pid, rel := range ix.relations {
		for i := 1; i < len(rel); i++ {
			if rel[i] <= rel[i-1] {
				return fmt.Errorf("pathindex: relation of path %d out of order at pair %d", pid, i)
			}
		}
	}
	return nil
}
