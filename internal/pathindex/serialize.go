package pathindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/graph"
)

// Serialization format v1 (little-endian):
//
//	magic   "PIDX"
//	version u32 (1)
//	k       u32
//	labels  u32, then per label: u32 name length + name bytes
//	paths   u32, then per path: u32 length + length×u32 DirLabel
//	counts  per path: u64 pair count
//	pathsK  u64 (|paths_k(G)|; 0 when skipped at build)
//	entries u64, then per entry: u32 pathID, u32 src, u32 dst,
//	        in ascending key order
//	trailer "XDIP"
//
// The label table makes a saved index self-describing: Load verifies it
// against the graph it is being attached to, so an index cannot silently
// be used with a graph whose label interning differs.
//
// Formats v2 (format2.go) and v3 (format3.go) share the magic and
// version field, so every reader recognizes every format: ReadFrom/Load
// decode any version into a heap-backed Index, while OpenMapped serves
// v2 files zero-copy and OpenCompressed serves v3 files decode-on-scan
// (OpenStorage picks the right one by sniffing the version).
const (
	magic      = "PIDX"
	trailer    = "XDIP"
	curVersion = 1
)

// WriteTo serializes the index. It returns the number of bytes written.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var n int64
	write := func(data any) error {
		if err := binary.Write(bw, binary.LittleEndian, data); err != nil {
			return err
		}
		n += int64(binary.Size(data))
		return nil
	}
	writeBytes := func(p []byte) error {
		m, err := bw.Write(p)
		n += int64(m)
		return err
	}

	if err := writeBytes([]byte(magic)); err != nil {
		return n, err
	}
	if err := write(uint32(curVersion)); err != nil {
		return n, err
	}
	if err := write(uint32(ix.k)); err != nil {
		return n, err
	}
	labels := ix.g.Labels()
	if err := write(uint32(len(labels))); err != nil {
		return n, err
	}
	for _, name := range labels {
		if err := write(uint32(len(name))); err != nil {
			return n, err
		}
		if err := writeBytes([]byte(name)); err != nil {
			return n, err
		}
	}
	if err := write(uint32(len(ix.paths))); err != nil {
		return n, err
	}
	for _, p := range ix.paths {
		if err := write(uint32(len(p))); err != nil {
			return n, err
		}
		for _, d := range p {
			if err := write(uint32(d)); err != nil {
				return n, err
			}
		}
	}
	for _, c := range ix.counts {
		if err := write(uint64(c)); err != nil {
			return n, err
		}
	}
	if err := write(uint64(ix.stats.PathsKCount)); err != nil {
		return n, err
	}
	if err := write(uint64(ix.stats.Entries)); err != nil {
		return n, err
	}
	written := 0
	for pid := range ix.paths {
		for _, pr := range ix.relations[pid] {
			if err := write(uint32(pid)); err != nil {
				return n, err
			}
			if err := write(uint32(pr.Src())); err != nil {
				return n, err
			}
			if err := write(uint32(pr.Dst())); err != nil {
				return n, err
			}
			written++
		}
	}
	if written != ix.stats.Entries {
		return n, fmt.Errorf("pathindex: serialized %d entries, index reports %d", written, ix.stats.Entries)
	}
	if err := writeBytes([]byte(trailer)); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Save writes the index to a file.
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

// ReadFrom deserializes an index previously produced by WriteTo (format
// v1) or WriteV2To (format v2, decoded into heap slices — use OpenMapped
// for the zero-copy path) and attaches it to g, which must be the same
// graph the index was built from (verified via the label table; node
// identity is the caller's responsibility, as node names are not stored
// in the index).
//
// Truncated or corrupted inputs of either version return descriptive
// errors; ReadFrom never panics on malformed data.
func ReadFrom(r io.Reader, g *graph.Graph) (*Index, error) {
	if !g.Frozen() {
		return nil, fmt.Errorf("pathindex: graph must be frozen")
	}
	br := bufio.NewReaderSize(r, 1<<20)
	read := func(data any) error { return binary.Read(br, binary.LittleEndian, data) }

	head := make([]byte, 4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("pathindex: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("pathindex: bad magic %q", head)
	}
	var version, k, numLabels uint32
	if err := read(&version); err != nil {
		return nil, fmt.Errorf("pathindex: reading version: %w", err)
	}
	switch version {
	case curVersion:
		// fall through to the v1 decoder below
	case v2Version:
		return readV2Heap(br, g)
	case v3Version:
		return readV3Heap(br, g)
	default:
		return nil, fmt.Errorf("pathindex: unsupported index version %d (supported: 1, 2, 3)", version)
	}
	if err := read(&k); err != nil {
		return nil, fmt.Errorf("pathindex: reading header: %w", err)
	}
	if k < 1 || k > maxSaneK {
		return nil, fmt.Errorf("pathindex: implausible locality parameter k=%d", k)
	}
	if err := read(&numLabels); err != nil {
		return nil, fmt.Errorf("pathindex: reading header: %w", err)
	}
	if int(numLabels) != g.NumLabels() {
		return nil, fmt.Errorf("pathindex: index has %d labels, graph has %d", numLabels, g.NumLabels())
	}
	for i := 0; i < int(numLabels); i++ {
		var nameLen uint32
		if err := read(&nameLen); err != nil {
			return nil, err
		}
		if nameLen > 1<<20 {
			return nil, fmt.Errorf("pathindex: implausible label name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		if g.LabelName(graph.LabelID(i)) != string(name) {
			return nil, fmt.Errorf("pathindex: label %d is %q in index, %q in graph", i, name, g.LabelName(graph.LabelID(i)))
		}
	}

	ix := newIndex(g, int(k))
	var numPaths uint32
	if err := read(&numPaths); err != nil {
		return nil, fmt.Errorf("pathindex: reading path count: %w", err)
	}
	for i := 0; i < int(numPaths); i++ {
		var plen uint32
		if err := read(&plen); err != nil {
			return nil, fmt.Errorf("pathindex: reading path %d: %w", i, err)
		}
		if int(plen) > int(k) || plen == 0 {
			return nil, fmt.Errorf("pathindex: path %d has length %d, k=%d", i, plen, k)
		}
		p := make(Path, plen)
		for j := range p {
			var d uint32
			if err := read(&d); err != nil {
				return nil, fmt.Errorf("pathindex: reading path %d: %w", i, err)
			}
			if int(graph.DirLabel(d).Label()) >= g.NumLabels() {
				return nil, fmt.Errorf("pathindex: path %d references unknown label %d", i, graph.DirLabel(d).Label())
			}
			p[j] = graph.DirLabel(d)
		}
		ix.paths = append(ix.paths, p)
		ix.ids[p.Key()] = uint32(i)
	}
	ix.counts = make([]int, numPaths)
	for i := range ix.counts {
		var c uint64
		if err := read(&c); err != nil {
			return nil, fmt.Errorf("pathindex: reading count of path %d: %w", i, err)
		}
		ix.counts[i] = int(c)
	}
	var pathsK, numEntries uint64
	if err := read(&pathsK); err != nil {
		return nil, fmt.Errorf("pathindex: reading |paths_k|: %w", err)
	}
	if err := read(&numEntries); err != nil {
		return nil, fmt.Errorf("pathindex: reading entry count: %w", err)
	}
	ix.relations = make([][]Packed, numPaths)
	// Corrupt header counts must not drive the pre-allocation: cap each
	// hint and also the aggregate across paths — a small file declaring
	// many paths of maximal capped counts would otherwise still reserve
	// gigabytes before decoding could reject it. Append grows honestly
	// past the hints; the per-path totals are verified against the
	// header after decoding.
	allocBudget := 1 << 22 // packed words, 32 MB total
	for i, c := range ix.counts {
		hint := c
		if hint < 0 || hint > 1<<20 {
			hint = 1 << 20
		}
		if hint > allocBudget {
			hint = allocBudget
		}
		allocBudget -= hint
		ix.relations[i] = make([]Packed, 0, hint)
	}
	prevPid := uint32(0)
	var prev Packed
	for i := 0; i < int(numEntries); i++ {
		var pid, src, dst uint32
		if err := read(&pid); err != nil {
			return nil, fmt.Errorf("pathindex: entry %d: %w", i, err)
		}
		if err := read(&src); err != nil {
			return nil, fmt.Errorf("pathindex: entry %d: %w", i, err)
		}
		if err := read(&dst); err != nil {
			return nil, fmt.Errorf("pathindex: entry %d: %w", i, err)
		}
		if pid >= numPaths {
			return nil, fmt.Errorf("pathindex: entry %d references path %d of %d", i, pid, numPaths)
		}
		pr := Pack(graph.NodeID(src), graph.NodeID(dst))
		if i > 0 && (pid < prevPid || (pid == prevPid && pr <= prev)) {
			return nil, fmt.Errorf("pathindex: entries out of order at %d", i)
		}
		ix.relations[pid] = append(ix.relations[pid], pr)
		prevPid, prev = pid, pr
	}
	tail := make([]byte, 4)
	if _, err := io.ReadFull(br, tail); err != nil {
		return nil, fmt.Errorf("pathindex: reading trailer: %w", err)
	}
	if string(tail) != trailer {
		return nil, fmt.Errorf("pathindex: bad trailer %q (truncated file?)", tail)
	}
	ix.stats = BuildStats{
		Entries:     int(numEntries),
		LabelPaths:  int(numPaths),
		PathsKCount: int(pathsK),
	}
	// Per-path counts must be consistent with the entries.
	for i, want := range ix.counts {
		if len(ix.relations[i]) != want {
			return nil, fmt.Errorf("pathindex: path %d has %d entries, header claims %d", i, len(ix.relations[i]), want)
		}
	}
	return ix, nil
}

// Load reads an index file of either format version and attaches it to
// g, decoding into heap slices. For large v2 indexes prefer OpenMapped,
// which skips the decode entirely.
func Load(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [8]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, fmt.Errorf("pathindex: reading magic: %w", err)
	}
	if ver := binary.LittleEndian.Uint32(head[4:]); string(head[:4]) == magic && (ver == v2Version || ver == v3Version) {
		// Knowing the file size up front lets the image land in one
		// aligned allocation instead of ReadAll's growth churn plus a
		// copy.
		st, err := f.Stat()
		if err != nil {
			return nil, err
		}
		size := st.Size()
		if int64(int(size)) != size || size < 8 {
			return nil, fmt.Errorf("pathindex: implausible v%d file size %d", ver, size)
		}
		words := make([]uint64, (size+7)/8)
		data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
		copy(data, head[:])
		if _, err := io.ReadFull(f, data[8:]); err != nil {
			return nil, fmt.Errorf("pathindex: reading v%d image: %w", ver, err)
		}
		if ver == v3Version {
			return decodeV3Heap(data, g)
		}
		return decodeV2Heap(data, g)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return ReadFrom(f, g)
}

// readV2Heap finishes reading a format-v2 stream whose magic and version
// (8 bytes) were already consumed, reassembling the full image in an
// aligned buffer and parsing it in place. The returned index owns the
// buffer; generic readers pay ReadAll plus one copy, which is why Load
// short-circuits to a sized single read for files.
func readV2Heap(br io.Reader, g *graph.Graph) (*Index, error) {
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("pathindex: reading v2 image: %w", err)
	}
	total := 8 + len(rest)
	words := make([]uint64, (total+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), total)
	copy(data, magic)
	binary.LittleEndian.PutUint32(data[4:], v2Version)
	copy(data[8:], rest)
	return decodeV2Heap(data, g)
}

// decodeV2Heap is the shared tail of the heap-decoding v2 paths: parse
// the assembled image and, unlike OpenMapped, verify run ordering —
// matching the v1 loader's out-of-order-entry rejection.
func decodeV2Heap(data []byte, g *graph.Graph) (*Index, error) {
	ix, err := parseV2(data, g)
	if err != nil {
		return nil, err
	}
	if err := ix.VerifyRuns(); err != nil {
		return nil, err
	}
	return ix, nil
}

// readV3Heap finishes reading a format-v3 stream whose magic and version
// were already consumed; the Materialize decode verifies every varint
// payload, so heap-loading v3 data rejects corruption OpenCompressed
// would tolerate until scan time.
func readV3Heap(br io.Reader, g *graph.Graph) (*Index, error) {
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("pathindex: reading v3 image: %w", err)
	}
	total := 8 + len(rest)
	words := make([]uint64, (total+7)/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), total)
	copy(data, magic)
	binary.LittleEndian.PutUint32(data[4:], v3Version)
	copy(data[8:], rest)
	return decodeV3Heap(data, g)
}

// decodeV3Heap parses a complete v3 image and fully decodes it into a
// heap-backed Index, verifying the payload in the process.
func decodeV3Heap(data []byte, g *graph.Graph) (*Index, error) {
	c, err := parseV3(data, g)
	if err != nil {
		return nil, err
	}
	return c.Materialize()
}
