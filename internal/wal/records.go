package wal

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
)

// BatchRecord is the decoded payload of a TypeBatch record: the edges
// of one ApplyBatch call and the engine epoch the batch produced.
// Edges are stored by name, not ID — node and label IDs are assigned
// deterministically in first-appearance order by graph.ExtendFrozen, so
// replaying the batches in sequence reproduces the exact ID space the
// original process had, which is what makes spilled run files (whose
// entries are packed IDs) valid across a restart.
type BatchRecord struct {
	Epoch uint64
	Edges []graph.LabeledEdge
}

// SpillRecord is the decoded payload of a TypeSpill record: tier spill
// metadata. File is the v4 run file's name relative to the durability
// directory; FromSeq..ToSeq is the inclusive range of batch sequence
// numbers the tier covers. A spill is an optimization, not a source of
// truth — if the file is missing or corrupt, recovery falls back to
// replaying the covered batch records.
type SpillRecord struct {
	Epoch   uint64
	FromSeq uint64
	ToSeq   uint64
	File    string
}

// CheckpointRecord is the decoded payload of a TypeCheckpoint record: a
// durable base covering every batch with sequence number <= UptoSeq.
// GraphFile is an ID-preserving binary graph snapshot (graph.SaveSnapshot
// — an edge list would permute node IDs on reload and corrupt the packed
// index entries) and IndexFile a v4 index of it, both relative to the
// durability directory. Records at or before UptoSeq are dead once the
// checkpoint is durable, which is what licenses Rewrite.
type CheckpointRecord struct {
	Epoch     uint64
	UptoSeq   uint64
	GraphFile string
	IndexFile string
}

func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

func appendString(buf []byte, s string) []byte {
	buf = appendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type payloadReader struct {
	data []byte
	off  int
	err  error
}

func (r *payloadReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		r.err = fmt.Errorf("wal: truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *payloadReader) str() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if uint64(len(r.data)-r.off) < n {
		r.err = fmt.Errorf("wal: truncated string at offset %d", r.off)
		return ""
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *payloadReader) finish(what string) error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.data) {
		return fmt.Errorf("wal: %d trailing bytes in %s payload", len(r.data)-r.off, what)
	}
	return nil
}

// EncodeBatch encodes a BatchRecord payload.
func EncodeBatch(b BatchRecord) []byte {
	buf := appendUvarint(nil, b.Epoch)
	buf = appendUvarint(buf, uint64(len(b.Edges)))
	for _, e := range b.Edges {
		buf = appendString(buf, e.Src)
		buf = appendString(buf, e.Label)
		buf = appendString(buf, e.Dst)
	}
	return buf
}

// DecodeBatch decodes a TypeBatch payload.
func DecodeBatch(payload []byte) (BatchRecord, error) {
	r := &payloadReader{data: payload}
	b := BatchRecord{Epoch: r.uvarint()}
	n := r.uvarint()
	if r.err == nil && n > uint64(len(payload)) {
		// Each edge takes at least 3 bytes; a count beyond the payload
		// size is garbage, not a huge batch.
		return BatchRecord{}, fmt.Errorf("wal: batch edge count %d exceeds payload", n)
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		b.Edges = append(b.Edges, graph.LabeledEdge{Src: r.str(), Label: r.str(), Dst: r.str()})
	}
	if err := r.finish("batch"); err != nil {
		return BatchRecord{}, err
	}
	return b, nil
}

// EncodeSpill encodes a SpillRecord payload.
func EncodeSpill(s SpillRecord) []byte {
	buf := appendUvarint(nil, s.Epoch)
	buf = appendUvarint(buf, s.FromSeq)
	buf = appendUvarint(buf, s.ToSeq)
	return appendString(buf, s.File)
}

// DecodeSpill decodes a TypeSpill payload.
func DecodeSpill(payload []byte) (SpillRecord, error) {
	r := &payloadReader{data: payload}
	s := SpillRecord{Epoch: r.uvarint(), FromSeq: r.uvarint(), ToSeq: r.uvarint(), File: r.str()}
	if err := r.finish("spill"); err != nil {
		return SpillRecord{}, err
	}
	return s, nil
}

// EncodeCheckpoint encodes a CheckpointRecord payload.
func EncodeCheckpoint(c CheckpointRecord) []byte {
	buf := appendUvarint(nil, c.Epoch)
	buf = appendUvarint(buf, c.UptoSeq)
	buf = appendString(buf, c.GraphFile)
	return appendString(buf, c.IndexFile)
}

// DecodeCheckpoint decodes a TypeCheckpoint payload.
func DecodeCheckpoint(payload []byte) (CheckpointRecord, error) {
	r := &payloadReader{data: payload}
	c := CheckpointRecord{Epoch: r.uvarint(), UptoSeq: r.uvarint(), GraphFile: r.str(), IndexFile: r.str()}
	if err := r.finish("checkpoint"); err != nil {
		return CheckpointRecord{}, err
	}
	return c, nil
}
