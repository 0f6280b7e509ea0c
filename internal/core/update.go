package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/pathindex"
)

// This file is the engine side of live graph updates. An Engine is
// immutable, so updates are functional: ApplyBatch computes the index
// delta of the new edges off-line — the serving engine keeps
// answering over the old snapshot throughout — and returns a successor
// engine (epoch+1) whose storage is a pathindex.Levels stack: the same
// immutable base index plus the accumulated update tiers, with the
// histogram rebuilt from the stack's merged counts. MergeTiersStep folds adjacent tiers to
// keep the stack shallow, and compaction — StartCompact / CompactJob /
// FinishCompact, or the one-call Compact — folds the whole stack back
// into a single immutable index in bounded increments. The base may be
// sharded: the stack is one either way, and the fold re-partitions its
// result when it was. The serving layer (Server via an EngineSource, or
// pathdb.DB) publishes successors with an atomic pointer swap.

// ApplyBatch returns a successor engine whose graph is this engine's
// graph extended by the edge batch and whose index additionally relates
// every new length-≤k path the batch completes. The receiver is not
// modified and keeps serving concurrent readers; the successor shares
// the immutable base index and all previous tiers with it, so memory
// grows only by the new tier. An empty batch returns the receiver
// unchanged.
//
// Cost is proportional to the delta and its join fan-outs (plus one
// histogram rebuild over path counts), not to the base index payload —
// the point of maintaining the index instead of rebuilding it.
func (e *Engine) ApplyBatch(edges []graph.LabeledEdge) (*Engine, error) {
	return e.ApplyBatchTagged(edges, 0)
}

// ApplyBatchTagged is ApplyBatch with the batch's WAL sequence number
// attached to the new tier, so the durability layer can line tiers up
// with log records (spills, checkpoints). Non-durable callers use
// ApplyBatch, which tags 0.
func (e *Engine) ApplyBatchTagged(edges []graph.LabeledEdge, seq uint64) (*Engine, error) {
	if len(edges) == 0 {
		return e, nil
	}
	unpin, err := e.pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	g2, err := e.g.ExtendFrozen(edges)
	if err != nil {
		return nil, fmt.Errorf("core: extending graph: %w", err)
	}
	delta, err := pathindex.BuildDelta(e.ix, g2)
	if err != nil {
		return nil, fmt.Errorf("core: building index delta: %w", err)
	}
	ls, err := pathindex.PushTier(e.ix, pathindex.NewTier(delta, seq, seq))
	if err != nil {
		return nil, fmt.Errorf("core: pushing index tier: %w", err)
	}
	return e.successor(ls)
}

// PushRecoveredTier layers an already-reconstructed tier (a spill file
// reloaded during WAL recovery) over the engine's storage and returns
// the successor engine. The tier must have been built for exactly this
// storage's graph lineage; g2 is the successor graph the tier's runs
// are expressed over.
func (e *Engine) PushRecoveredTier(t *pathindex.Tier, g2 *graph.Graph) (*Engine, error) {
	ls, err := pathindex.PushTier(e.ix, t)
	if err != nil {
		return nil, fmt.Errorf("core: pushing recovered tier: %w", err)
	}
	if ls.Graph() != g2 {
		return nil, fmt.Errorf("core: recovered tier graph does not extend the engine graph")
	}
	return e.successor(ls)
}

// MergeTiersStep folds one adjacent tier pair of the engine's stack
// (size-tiered policy; see pathindex.Levels.MergeOnce) and returns the
// successor engine, or the receiver unchanged when the storage is not a
// tier stack or no pair qualifies. It must not run while a compaction
// job started from this lineage is in flight — the job's FinishCompact
// requires its source tiers to survive as a prefix of the current
// stack; pathdb gates the two.
func (e *Engine) MergeTiersStep() (*Engine, bool, error) {
	ls, ok := e.ix.(*pathindex.Levels)
	if !ok {
		return e, false, nil
	}
	merged, ok := ls.MergeOnce()
	if !ok {
		return e, false, nil
	}
	ne, err := e.successor(merged)
	if err != nil {
		return nil, false, err
	}
	// A tier merge changes no relation and answers no differently; it
	// reshapes bookkeeping. Successor bumps the epoch anyway, so every
	// new snapshot has a number of its own.
	return ne, true, nil
}

// CompactJob is an in-flight incremental compaction: a bounded-step
// fold of the engine's tier stack into one fresh heap index. The job
// holds a pin on the source storage so a concurrent Close cannot unmap
// the base mid-fold; FinishCompact or Abort releases it. Step may run
// without any lock — it reads only the immutable source stack — but is
// single-consumer.
type CompactJob struct {
	fold  *pathindex.Fold
	unpin func()
}

// StartCompact begins an incremental compaction of the engine's tier
// stack. It returns (nil, nil) when the storage carries no tiers to
// fold (nothing to compact). The engine keeps serving; apply more
// batches freely while the job steps — FinishCompact grafts the folded
// base under any tiers pushed since.
func (e *Engine) StartCompact() (*CompactJob, error) {
	ls, ok := e.ix.(*pathindex.Levels)
	if !ok {
		return nil, nil
	}
	unpin, err := e.pin()
	if err != nil {
		return nil, err
	}
	return &CompactJob{fold: ls.StartFold(), unpin: unpin}, nil
}

// Step folds until at least entryBudget index entries have been copied
// (at least one label path per call), returning true when the fold is
// complete and FinishCompact may be called.
func (j *CompactJob) Step(entryBudget int) bool { return j.fold.Step(entryBudget) }

// Result returns the folded base of a completed job, in the layout of
// the base it replaces. It stays readable after FinishCompact — the
// durability layer persists it as a checkpoint base after installing it.
func (j *CompactJob) Result() pathindex.Storage { return j.fold.Result() }

// SrcGraph returns the graph the folded index is attached to: the graph
// as of the last tier the job folded.
func (j *CompactJob) SrcGraph() *graph.Graph { return j.fold.Src().Graph() }

// UptoSeq returns the highest WAL sequence number the folded tiers
// cover, or 0 for stacks that do not track sequence numbers. A
// checkpoint written from this job's result supersedes every log record
// up to and including UptoSeq.
func (j *CompactJob) UptoSeq() uint64 {
	tiers := j.fold.Src().Tiers()
	if len(tiers) == 0 {
		return 0
	}
	return tiers[len(tiers)-1].SeqHi()
}

// Abort releases the job's storage pin without installing anything.
func (j *CompactJob) Abort() {
	if j.unpin != nil {
		j.unpin()
		j.unpin = nil
	}
}

// FinishCompact installs a completed fold into the receiver — the
// *current* engine, which may be any number of batches ahead of the one
// that started the job. The job's source tiers must survive as a
// pointer-identical prefix of the receiver's stack (guaranteed by not
// running tier merges while a job is active); tiers pushed after the
// job started are re-stacked over the folded base. The receiver is left
// serving; the successor engine (epoch+1) is returned.
func (e *Engine) FinishCompact(j *CompactJob) (*Engine, error) {
	if !j.fold.Done() {
		return nil, fmt.Errorf("core: FinishCompact before the fold completed")
	}
	defer j.Abort()
	if err := j.fold.Err(); err != nil {
		return nil, fmt.Errorf("core: compacting: %w", err)
	}
	folded := j.fold.Result()
	src := j.fold.Src()
	cur, ok := e.ix.(*pathindex.Levels)
	if !ok {
		return nil, fmt.Errorf("core: engine storage changed shape during compaction (%T)", e.ix)
	}
	if cur.Base() != src.Base() {
		return nil, fmt.Errorf("core: engine base changed during compaction")
	}
	curTiers, srcTiers := cur.Tiers(), src.Tiers()
	if len(curTiers) < len(srcTiers) {
		return nil, fmt.Errorf("core: engine lost tiers during compaction")
	}
	for i := range srcTiers {
		if curTiers[i] != srcTiers[i] {
			return nil, fmt.Errorf("core: tier %d changed during compaction", i)
		}
	}
	rest := curTiers[len(srcTiers):]
	if len(rest) == 0 {
		return e.successor(folded)
	}
	ls, err := pathindex.NewLevels(folded, append([]*pathindex.Tier{}, rest...))
	if err != nil {
		return nil, fmt.Errorf("core: re-stacking tiers over compacted base: %w", err)
	}
	return e.successor(ls)
}

// Compact folds the engine's accumulated update tiers into a fresh
// immutable index and returns the successor engine serving it — a
// CompactJob run to completion in one call. An engine whose storage
// carries no tiers is returned unchanged. Like ApplyBatch, Compact
// leaves the receiver serving; the fold reads the base under a pin, so
// it is safe against a concurrent Close.
func (e *Engine) Compact() (*Engine, error) {
	job, err := e.StartCompact()
	if job == nil || err != nil {
		return e, err
	}
	for !job.Step(1 << 30) {
	}
	return e.FinishCompact(job)
}

// AtEpoch returns a copy of the engine renumbered to the given epoch,
// sharing graph, storage, and histogram. Recovery uses it to resume the epoch lineage
// recorded in the WAL instead of the replay's own count.
func (e *Engine) AtEpoch(epoch uint64) *Engine {
	return &Engine{g: e.g, ix: e.ix, hist: e.hist, opts: e.opts, epoch: epoch}
}

// successor wraps new storage in an engine one epoch ahead of e,
// carrying the options over and rebuilding the histogram (whose cost is
// proportional to the number of label paths).
func (e *Engine) successor(ix pathindex.Storage) (*Engine, error) {
	ne, err := NewEngineFromStorage(ix, e.opts)
	if err != nil {
		return nil, err
	}
	ne.epoch = e.epoch + 1
	return ne, nil
}
