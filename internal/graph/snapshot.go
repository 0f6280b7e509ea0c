package graph

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
)

// This file is the checkpoint codec: a binary graph snapshot that
// round-trips node and label identifiers exactly. The edge-list text
// format cannot serve as a checkpoint base — WriteEdgeList groups lines
// by label, so ReadEdgeList re-interns nodes in a different
// first-appearance order and every NodeID stored in an index file built
// against the original graph silently dangles. A snapshot instead
// records the node and label tables in identifier order and the edges
// by identifier, so LoadSnapshot reconstructs a graph whose IDs are
// bit-identical to the saved one (isolated nodes included, which an
// edge list also loses). The durability layer pairs a snapshot with a
// format-v4 index file in each checkpoint.

// snapHeader is the snapshot preamble: magic plus format version.
var snapHeader = []byte{'P', 'G', 'S', 'N', 1, 0, 0, 0}

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteSnapshotBytes encodes g as an ID-preserving binary snapshot. The
// graph must be frozen.
func (g *Graph) WriteSnapshotBytes() []byte {
	g.mustBeFrozen()
	buf := append([]byte(nil), snapHeader...)
	buf = binary.AppendUvarint(buf, uint64(len(g.nodeNames)))
	for _, name := range g.nodeNames {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(g.labelNames)))
	for _, name := range g.labelNames {
		buf = binary.AppendUvarint(buf, uint64(len(name)))
		buf = append(buf, name...)
	}
	for l := range g.edges {
		buf = binary.AppendUvarint(buf, uint64(len(g.edges[l])))
		for _, e := range g.edges[l] {
			buf = binary.AppendUvarint(buf, uint64(e.Src))
			buf = binary.AppendUvarint(buf, uint64(e.Dst))
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.Checksum(buf, snapCRC))
	return append(buf, tail[:]...)
}

// SaveSnapshot writes g to path as a binary snapshot, through a temp
// file + fsync + rename so a crash mid-write never leaves a truncated
// file under the final name. Unlike SaveEdgeList, the snapshot
// round-trips node and label identifiers exactly — LoadSnapshot returns
// a graph against which packed pairs and saved index files built from g
// remain valid.
func (g *Graph) SaveSnapshot(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(g.WriteSnapshotBytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// snapReader cursors over snapshot bytes, latching the first error.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("graph: truncated snapshot")
		return 0
	}
	r.off += n
	return v
}

func (r *snapReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > uint64(len(r.data)-r.off) {
		r.err = fmt.Errorf("graph: truncated snapshot string")
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// LoadSnapshot reads a graph snapshot written by SaveSnapshot and
// returns the frozen graph with node and label identifiers identical to
// the graph that was saved. The trailing checksum is verified, so a
// corrupted checkpoint fails loudly instead of serving wrong IDs.
func LoadSnapshot(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < len(snapHeader)+4 || string(data[:4]) != string(snapHeader[:4]) {
		return nil, fmt.Errorf("graph: %s is not a graph snapshot (bad magic)", path)
	}
	if data[4] != snapHeader[4] {
		return nil, fmt.Errorf("graph: unsupported snapshot version %d", data[4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, snapCRC) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("graph: snapshot %s failed checksum verification", path)
	}
	r := &snapReader{data: body, off: len(snapHeader)}
	g := New()
	numNodes := r.uvarint()
	for i := uint64(0); i < numNodes && r.err == nil; i++ {
		name := r.str()
		if r.err == nil && uint64(g.Node(name)) != i {
			return nil, fmt.Errorf("graph: snapshot %s repeats node name %q", path, name)
		}
	}
	numLabels := r.uvarint()
	for i := uint64(0); i < numLabels && r.err == nil; i++ {
		name := r.str()
		if r.err == nil && uint64(g.Label(name)) != i {
			return nil, fmt.Errorf("graph: snapshot %s repeats label name %q", path, name)
		}
	}
	for l := uint64(0); l < numLabels && r.err == nil; l++ {
		numEdges := r.uvarint()
		for e := uint64(0); e < numEdges && r.err == nil; e++ {
			src, dst := r.uvarint(), r.uvarint()
			if src >= numNodes || dst >= numNodes {
				return nil, fmt.Errorf("graph: snapshot %s edge references unknown node", path)
			}
			g.AddEdgeID(NodeID(src), LabelID(l), NodeID(dst))
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("graph: snapshot %s has %d trailing bytes", path, len(body)-r.off)
	}
	g.Freeze()
	return g, nil
}
