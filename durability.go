package pathdb

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/wal"
)

// This file is the durable update path: a write-ahead edge log plus
// tiered on-disk state under one directory. A durable DB appends every
// batch to the WAL (fsync'd, CRC-framed) before publishing the
// successor snapshot, spills settled update tiers to format-v4 run
// files, and periodically compacts the tier stack into a checkpoint — a
// (graph snapshot, v4 index) pair that supersedes the log prefix it
// covers, after which the WAL is truncated to the remaining suffix. A
// sharded lineage runs the same lifecycle; only its checkpoint index is
// a sharded directory instead of one file.
//
// Recovery on open is a deterministic replay: start from the newest
// checkpoint (or the original base), then walk the WAL tail in sequence
// order. At each position the widest loadable spill file starting there
// is preferred — the precomputed runs are loaded instead of re-deriving
// them through the delta join — and anything without a usable spill is
// replayed batch by batch through the same ApplyBatch maintenance path
// that produced it. Node and label identifiers are interned in first-
// appearance order by ExtendFrozen, so replaying the same batches over
// the same base reproduces identical IDs, which is what makes spill and
// checkpoint files loadable with exact label validation.

// WALFileName is the log file's name inside DurabilityOptions.Dir.
const WALFileName = "wal.log"

// DefaultSpillEntries is the tier size (in index entries) beyond which
// a memory-only tier is spilled to a v4 run file.
const DefaultSpillEntries = 1 << 14

// DefaultCompactBudget is the per-step entry budget of incremental
// compaction: each Fold step copies about this many entries before
// yielding, bounding the latency cost of any single step.
const DefaultCompactBudget = 1 << 18

// DurabilityOptions configures the durable update path of BuildDurable
// and OpenDurable. Dir is required; the zero value of every other field
// is a sensible default.
type DurabilityOptions struct {
	// Dir is the durability directory: the WAL, spill files, and
	// checkpoint files all live here. It is created if absent.
	Dir string
	// NoSync skips the per-append fsync. Batches then survive process
	// crashes but not host crashes; meant for tests and benchmarks that
	// measure the update path without the disk.
	NoSync bool
	// SpillEntries is the tier size beyond which a tier is persisted as
	// a v4 run file so recovery can load it instead of re-deriving it.
	// 0 uses DefaultSpillEntries; negative disables spilling.
	SpillEntries int
	// CompactBudget is the entry budget per incremental compaction step.
	// 0 uses DefaultCompactBudget.
	CompactBudget int
}

func (d DurabilityOptions) spillEntries() int {
	if d.SpillEntries == 0 {
		return DefaultSpillEntries
	}
	return d.SpillEntries
}

func (d DurabilityOptions) compactBudget() int {
	if d.CompactBudget <= 0 {
		return DefaultCompactBudget
	}
	return d.CompactBudget
}

// durableState is the DB side of the durability directory. The record
// mirror and checkpointSeq are guarded by db.mu (the WAL itself is
// single-writer under the same lock); counters are atomics so
// DurabilityStats can read them without the lock.
type durableState struct {
	dir  string
	opts DurabilityOptions
	log  *wal.Log

	// records mirrors the log's current contents so checkpoint
	// truncation can rewrite the suffix without re-reading the file.
	records       []wal.Record
	checkpointSeq uint64

	spills           atomic.Int64
	checkpoints      atomic.Int64
	recoveredBatches int64
	recoveredSpills  int64
	maxStepMicros    atomic.Int64
}

// append writes one record through the log and mirrors it.
func (ds *durableState) append(typ uint8, payload []byte) (uint64, error) {
	seq, err := ds.log.Append(typ, payload)
	if err != nil {
		return 0, err
	}
	ds.records = append(ds.records, wal.Record{Seq: seq, Type: typ, Payload: payload})
	return seq, nil
}

// cleanup removes spill and checkpoint files no longer referenced by
// any log record, best-effort. Called with db.mu held (no spill or
// checkpoint can be mid-write concurrently).
func (ds *durableState) cleanup() {
	referenced := map[string]bool{}
	for _, r := range ds.records {
		switch r.Type {
		case wal.TypeSpill:
			if sr, err := wal.DecodeSpill(r.Payload); err == nil {
				referenced[sr.File] = true
			}
		case wal.TypeCheckpoint:
			if cr, err := wal.DecodeCheckpoint(r.Payload); err == nil {
				referenced[cr.GraphFile] = true
				referenced[cr.IndexFile] = true
			}
		}
	}
	ents, err := os.ReadDir(ds.dir)
	if err != nil {
		return
	}
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, "spill-") && !strings.HasPrefix(name, "ckpt-") {
			continue
		}
		if !referenced[name] {
			os.RemoveAll(filepath.Join(ds.dir, name)) // a sharded checkpoint index is a directory
		}
	}
}

// coreOptions maps the public Options onto the engine's option set.
func (o Options) coreOptions() core.Options {
	return core.Options{
		K:                o.K,
		HistogramBuckets: o.HistogramBuckets,
		MaxDisjuncts:     o.MaxDisjuncts,
		MaxPathLength:    o.MaxPathLength,
		MaxTotalSteps:    o.MaxTotalSteps,
		MaxIndexEntries:  o.MaxIndexEntries,
		Shards:           o.Shards,
	}
}

// BuildDurable is Build plus the durable update path rooted at d.Dir:
// every ApplyBatch is logged before it is visible, and reopening the
// same directory (with the same deterministically constructed base
// graph) recovers every batch that was ever acknowledged. If the
// directory holds a checkpoint, the base is restored from it and g is
// only consulted when no checkpoint exists yet, so callers must pass
// the same base graph on every open.
func BuildDurable(g *Graph, opts Options, d DurabilityOptions) (*DB, error) {
	return openDurable(opts, d, func(o Options) (*core.Engine, io.Closer, error) {
		if g == nil {
			return nil, nil, fmt.Errorf("pathdb: nil graph")
		}
		g.Freeze()
		e, err := core.NewEngine(g, o.coreOptions())
		return e, nil, err
	})
}

// OpenDurable is Open plus the durable update path rooted at d.Dir. The
// graph and index files name the immutable base the database was built
// from (exactly as for Open); the durability directory carries
// everything applied since. When a checkpoint exists in the directory
// it supersedes the base files, which are then not read at all.
func OpenDurable(graphPath, indexPath string, opts Options, d DurabilityOptions) (*DB, error) {
	return openDurable(opts, d, func(o Options) (*core.Engine, io.Closer, error) {
		g, err := graph.LoadEdgeList(graphPath)
		if err != nil {
			return nil, nil, fmt.Errorf("pathdb: loading graph: %w", err)
		}
		return openEngine(indexPath, g, o)
	})
}

// openDurable opens the WAL, restores the newest checkpoint (falling
// back to the caller's base constructor), replays the log tail, and
// wires the durable state into the DB.
func openDurable(opts Options, d DurabilityOptions, base func(Options) (*core.Engine, io.Closer, error)) (*DB, error) {
	if d.Dir == "" {
		return nil, fmt.Errorf("pathdb: DurabilityOptions.Dir is required")
	}
	if err := os.MkdirAll(d.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("pathdb: creating durability dir: %w", err)
	}
	log, recs, err := wal.Open(filepath.Join(d.Dir, WALFileName), !d.NoSync)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*DB, error) {
		log.Close()
		return nil, err
	}

	var ck *wal.CheckpointRecord
	for i := len(recs) - 1; i >= 0 && ck == nil; i-- {
		if recs[i].Type == wal.TypeCheckpoint {
			c, derr := wal.DecodeCheckpoint(recs[i].Payload)
			if derr != nil {
				return fail(fmt.Errorf("pathdb: WAL checkpoint record %d: %w", recs[i].Seq, derr))
			}
			ck = &c
		}
	}

	var e *core.Engine
	var closer io.Closer
	if ck != nil {
		g, gerr := graph.LoadSnapshot(filepath.Join(d.Dir, ck.GraphFile))
		if gerr != nil {
			return fail(fmt.Errorf("pathdb: loading checkpoint graph: %w", gerr))
		}
		// The checkpoint's layout — one file or a sharded directory — is
		// the lineage's; it wins over Options.Shards as the checkpoint wins
		// over the base files.
		e, closer, err = openEngine(filepath.Join(d.Dir, ck.IndexFile), g, opts)
		if err != nil {
			return fail(fmt.Errorf("pathdb: opening checkpoint index: %w", err))
		}
	} else {
		e, closer, err = base(opts)
		if err != nil {
			return fail(err)
		}
	}

	after := uint64(0)
	var maxEpoch uint64
	if ck != nil {
		after, maxEpoch = ck.UptoSeq, ck.Epoch
	}
	e, nBatches, nSpills, replayEpoch, err := replayWAL(e, d.Dir, recs, after)
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return fail(err)
	}
	if replayEpoch > maxEpoch {
		maxEpoch = replayEpoch
	}
	if maxEpoch > e.Epoch() {
		// Resume the epoch lineage the log records, not the replay's own
		// count: clients compare epochs monotonically.
		e = e.AtEpoch(maxEpoch)
	}

	db := newDB(e, closer, opts.CompactRatio)
	db.dur = &durableState{
		dir:              d.Dir,
		opts:             d,
		log:              log,
		records:          recs,
		checkpointSeq:    after,
		recoveredBatches: nBatches,
		recoveredSpills:  nSpills,
	}
	return db, nil
}

// replayWAL reconstructs the tier stack from the log records after the
// given sequence number. Batches covered by a loadable spill file are
// restored by loading the precomputed runs (the widest spill starting
// at the current position wins); everything else re-runs the ApplyBatch
// maintenance path. A corrupt or missing spill file only costs the
// shortcut — the batches it covered are replayed instead.
func replayWAL(e *core.Engine, dir string, recs []wal.Record, after uint64) (_ *core.Engine, batches, spillsUsed int64, maxEpoch uint64, err error) {
	type pending struct {
		seq uint64
		rec wal.BatchRecord
	}
	var tail []pending
	spillsByFrom := map[uint64][]wal.SpillRecord{}
	for _, r := range recs {
		if r.Seq <= after {
			continue
		}
		switch r.Type {
		case wal.TypeBatch:
			br, derr := wal.DecodeBatch(r.Payload)
			if derr != nil {
				return nil, 0, 0, 0, fmt.Errorf("pathdb: WAL batch record %d: %w", r.Seq, derr)
			}
			if br.Epoch > maxEpoch {
				maxEpoch = br.Epoch
			}
			tail = append(tail, pending{r.Seq, br})
		case wal.TypeSpill:
			sr, derr := wal.DecodeSpill(r.Payload)
			if derr != nil {
				continue // a bad spill record only loses an optimization
			}
			spillsByFrom[sr.FromSeq] = append(spillsByFrom[sr.FromSeq], sr)
		}
	}
	for i := 0; i < len(tail); {
		srs := spillsByFrom[tail[i].seq]
		sort.Slice(srs, func(a, b int) bool { return srs[a].ToSeq > srs[b].ToSeq })
		advanced := false
		for _, sr := range srs {
			j := i
			var edges []graph.LabeledEdge
			for j < len(tail) && tail[j].seq <= sr.ToSeq {
				edges = append(edges, tail[j].rec.Edges...)
				j++
			}
			if j == i || tail[j-1].seq != sr.ToSeq {
				continue // the spill's range is not fully covered by logged batches
			}
			g2, xerr := e.Graph().ExtendFrozen(edges)
			if xerr != nil {
				break
			}
			ix, lerr := pathindex.Load(filepath.Join(dir, sr.File), g2)
			if lerr != nil {
				continue // corrupt or missing spill: try a narrower one, then replay
			}
			tier := pathindex.NewSpilledTier(ix, sr.FromSeq, sr.ToSeq, sr.File)
			ne, perr := e.PushRecoveredTier(tier, g2)
			if perr != nil {
				continue
			}
			e, i = ne, j
			spillsUsed++
			advanced = true
			break
		}
		if advanced {
			continue
		}
		ne, aerr := e.ApplyBatchTagged(tail[i].rec.Edges, tail[i].seq)
		if aerr != nil {
			return nil, 0, 0, 0, fmt.Errorf("pathdb: replaying WAL batch %d: %w", tail[i].seq, aerr)
		}
		e = ne
		batches++
		i++
	}
	return e, batches, spillsUsed, maxEpoch, nil
}

// maintainTiers runs one size-tiered merge step and the spill policy
// after a batch. One step per batch keeps the stack logarithmic with
// amortized linear merge work; looping to a fixpoint here would fold
// the accumulated delta on every batch. Skipped entirely
// while a compaction fold is in flight — FinishCompact needs the fold's
// source tiers to survive as a pointer-identical prefix of the stack.
// Called with db.mu held.
func (db *DB) maintainTiers() {
	if db.foldActive.Load() {
		return
	}
	e := db.eng()
	ne, ok, err := e.MergeTiersStep()
	if err == nil && ok {
		db.engine.Store(ne)
		e = ne
	}
	db.maybeSpill(e)
}

// maybeSpill persists every sufficiently large memory-only tier as a v4
// run file and logs a Spill record for it, so recovery can load the
// precomputed runs instead of re-deriving them. A tier produced by
// merging loses its predecessors' spill markers and is re-spilled once
// it qualifies again; the superseded files are garbage-collected at the
// next checkpoint. Called with db.mu held.
func (db *DB) maybeSpill(e *core.Engine) {
	if db.dur == nil || db.dur.opts.SpillEntries < 0 {
		return
	}
	ls, ok := e.Storage().(*pathindex.Levels)
	if !ok {
		return
	}
	threshold := db.dur.opts.spillEntries()
	for _, t := range ls.Tiers() {
		if t.Spill() != "" || t.SeqHi() == 0 || t.Entries() < threshold {
			continue
		}
		name := fmt.Sprintf("spill-%06d-%06d.pix", t.SeqLo(), t.SeqHi())
		if err := t.WriteSpill(filepath.Join(db.dur.dir, name)); err != nil {
			return // best-effort: recovery replays the batches instead
		}
		payload := wal.EncodeSpill(wal.SpillRecord{
			Epoch: e.Epoch(), FromSeq: t.SeqLo(), ToSeq: t.SeqHi(), File: name,
		})
		if _, err := db.dur.append(wal.TypeSpill, payload); err != nil {
			os.Remove(filepath.Join(db.dur.dir, name))
			return
		}
		t.SetSpill(name)
		db.dur.spills.Add(1)
	}
}

// checkpoint persists a completed compaction as the new durable base —
// a graph snapshot plus the folded index as a v4 file, or as a sharded
// directory when the base is sharded — then logs a Checkpoint record and
// truncates the WAL to the records the checkpoint does not cover. Every
// crash window is safe: files are written atomically before the record
// that references them, and the truncation itself is an atomic log
// rewrite, so recovery sees either the old tail or the new checkpoint,
// never a mix.
func (db *DB) checkpoint(job *core.CompactJob) error {
	upto := job.UptoSeq()
	if upto == 0 {
		return nil // untagged tiers: nothing in the log to supersede
	}
	graphFile := fmt.Sprintf("ckpt-%06d.graph", upto)
	indexFile := fmt.Sprintf("ckpt-%06d.pix", upto)
	if err := job.SrcGraph().SaveSnapshot(filepath.Join(db.dur.dir, graphFile)); err != nil {
		return fmt.Errorf("pathdb: writing checkpoint graph: %w", err)
	}
	if err := pathindex.SaveAtomic(job.Result(), filepath.Join(db.dur.dir, indexFile)); err != nil {
		return fmt.Errorf("pathdb: writing checkpoint index: %w", err)
	}

	db.mu.Lock()
	defer db.mu.Unlock()
	rec := wal.CheckpointRecord{
		Epoch: db.eng().Epoch(), UptoSeq: upto, GraphFile: graphFile, IndexFile: indexFile,
	}
	ckSeq, err := db.dur.append(wal.TypeCheckpoint, wal.EncodeCheckpoint(rec))
	if err != nil {
		return err
	}
	keep := db.dur.records[:0:0]
	for _, r := range db.dur.records {
		if r.Seq <= upto {
			continue
		}
		// A Checkpoint record is logged after the batches that landed
		// while its compaction ran, so an older one can sit above upto.
		// Recovery reads only the newest; dropping the rest here is what
		// lets cleanup delete the files they reference.
		if r.Type == wal.TypeCheckpoint && r.Seq != ckSeq {
			continue
		}
		if r.Type == wal.TypeSpill {
			if sr, err := wal.DecodeSpill(r.Payload); err == nil && sr.ToSeq <= upto {
				continue // the checkpoint subsumes this spill
			}
		}
		keep = append(keep, r)
	}
	if err := db.dur.log.Rewrite(keep); err != nil {
		return fmt.Errorf("pathdb: truncating WAL: %w", err)
	}
	db.dur.records = keep
	db.dur.checkpointSeq = upto
	db.dur.checkpoints.Add(1)
	db.dur.cleanup()
	return nil
}

// DurabilityStats describes the durable update state: the WAL, the tier
// stack's persistence, and the recovery work the last open performed.
// The zero value (Enabled false) is returned for non-durable databases.
type DurabilityStats struct {
	// Enabled reports whether the DB was opened with a durability dir.
	Enabled bool
	// Dir is the durability directory.
	Dir string
	// WALRecords and WALBytes describe the log's current extent;
	// NextSeq is the sequence number the next batch will be assigned.
	WALRecords int
	WALBytes   int64
	NextSeq    uint64
	// CheckpointSeq is the highest sequence number covered by a durable
	// checkpoint (0 before the first checkpoint); the WAL holds only
	// records after it.
	CheckpointSeq uint64
	// Tiers and SpilledTiers describe the live stack: how many update
	// tiers the current snapshot serves and how many of them are also
	// persisted as spill files.
	Tiers        int
	SpilledTiers int
	// Spills and Checkpoints count files written since open.
	Spills      int64
	Checkpoints int64
	// RecoveredBatches and RecoveredSpills describe the replay the last
	// open performed: batches re-derived through the maintenance path
	// and spill files loaded in their place.
	RecoveredBatches int64
	RecoveredSpills  int64
	// MaxCompactStepMillis is the longest single incremental compaction
	// step observed since open — the bound that keeps compaction from
	// monopolizing a core (compare against a full rebuild's time).
	MaxCompactStepMillis float64
}

// DurabilityStats returns a snapshot of the durable update state.
func (db *DB) DurabilityStats() DurabilityStats {
	if db.dur == nil {
		return DurabilityStats{}
	}
	st := DurabilityStats{
		Enabled:          true,
		Dir:              db.dur.dir,
		Spills:           db.dur.spills.Load(),
		Checkpoints:      db.dur.checkpoints.Load(),
		RecoveredBatches: db.dur.recoveredBatches,
		RecoveredSpills:  db.dur.recoveredSpills,
	}
	st.MaxCompactStepMillis = float64(db.dur.maxStepMicros.Load()) / 1000
	db.mu.Lock()
	st.WALRecords = db.dur.log.Records()
	st.WALBytes = db.dur.log.Size()
	st.NextSeq = db.dur.log.NextSeq()
	st.CheckpointSeq = db.dur.checkpointSeq
	db.mu.Unlock()
	if ls, ok := db.eng().Storage().(*pathindex.Levels); ok {
		st.Tiers = len(ls.Tiers())
		for _, t := range ls.Tiers() {
			if t.Spill() != "" {
				st.SpilledTiers++
			}
		}
	}
	return st
}

// noteCompactStep records a step duration for the max-step statistic.
func (db *DB) noteCompactStep(micros int64) {
	if db.dur == nil {
		return
	}
	for {
		cur := db.dur.maxStepMicros.Load()
		if micros <= cur || db.dur.maxStepMicros.CompareAndSwap(cur, micros) {
			return
		}
	}
}
