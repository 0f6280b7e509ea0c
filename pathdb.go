// Package pathdb is a regular path query (RPQ) engine for directed,
// edge-labeled graphs, built on localized k-path indexes. It reproduces
// the system demonstrated in "Efficient regular path query evaluation
// using path indexes" (Fletcher, Peters & Poulovassilis, EDBT 2016).
//
// # Quick start
//
//	g := pathdb.NewGraph()
//	g.AddEdge("ada", "knows", "zoe")
//	g.AddEdge("zoe", "worksFor", "ada")
//	db, err := pathdb.Build(g, pathdb.Options{K: 2})
//	if err != nil { ... }
//	res, err := db.Query("knows/worksFor")
//	for _, pair := range res.Names { fmt.Println(pair[0], "->", pair[1]) }
//
// Queries are regular expressions over edge labels: `knows/worksFor^-`
// composes a forward step with an inverse step; `a|b` is disjunction;
// `(knows/worksFor){2,4}` is bounded recursion; `knows*` is Kleene
// closure, evaluated natively over the strongly connected components of
// its body rather than by expansion, so closures over cyclic graphs
// terminate and stay fast. Answers follow the standard RPQ semantics: the set of
// node pairs connected by a path whose label sequence is in the
// expression's language.
//
// Four evaluation strategies from the paper are available; the default,
// StrategyMinSupport, uses an equi-depth selectivity histogram to place
// joins. See the Strategy constants.
//
// Beyond one-shot evaluation, a DB serves live traffic: Serve adds a
// plan-caching front end, ApplyBatch maintains the index under edge
// insertions by swapping in immutable engine snapshots (queries never
// block on writes), and Compact folds accumulated update tiers back
// into one index in bounded increments. BuildDurable/OpenDurable attach
// a write-ahead log so acknowledged batches survive crashes — reopening
// the same directory replays the log; see DurabilityOptions and
// docs/ARCHITECTURE.md for the full picture.
package pathdb

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rpq"
	"repro/internal/wal"
)

// Graph is a mutable, directed, edge-labeled graph. Create one with
// NewGraph, populate it with AddEdge, and pass it to Build (which
// freezes it).
type Graph = graph.Graph

// NewGraph returns an empty graph.
func NewGraph() *Graph { return graph.New() }

// LoadGraph reads a graph from an edge-list file with lines of the form
// "source label target" (see graph.ReadEdgeList for details).
func LoadGraph(path string) (*Graph, error) { return graph.LoadEdgeList(path) }

// Strategy selects the plan-generation algorithm (Section 4 of the
// paper).
type Strategy = plan.Strategy

// The four evaluation strategies of the paper.
const (
	// StrategyNaive fixes k at 1: single-label scans joined left to
	// right (stands in for automaton-based evaluation).
	StrategyNaive = plan.Naive
	// StrategySemiNaive chunks each disjunct greedily into length-k
	// segments joined left to right.
	StrategySemiNaive = plan.SemiNaive
	// StrategyMinSupport splits at the most selective k-subpath using
	// the histogram (the paper's recommended strategy).
	StrategyMinSupport = plan.MinSupport
	// StrategyMinJoin minimizes the number of joins, then picks the
	// cheapest segmentation and join order.
	StrategyMinJoin = plan.MinJoin
)

// ParseStrategy converts "naive", "semiNaive", "minSupport", or
// "minJoin" to a Strategy.
func ParseStrategy(name string) (Strategy, error) { return plan.ParseStrategy(name) }

// Strategies lists all strategies in presentation order.
func Strategies() []Strategy { return plan.Strategies() }

// Options configures Build. The zero value of every field other than K
// is a sensible default.
type Options struct {
	// K is the path-index locality parameter: label paths up to length
	// K are indexed. Larger K speeds up long queries at the cost of
	// index size and build time. Required, at least 1.
	K int
	// HistogramBuckets is the equi-depth histogram resolution used for
	// selectivity estimation; 0 keeps exact per-path counts.
	HistogramBuckets int
	// MaxDisjuncts and MaxPathLength bound query expansion (guards
	// against exponential rewrites); 0 uses library defaults.
	MaxDisjuncts  int
	MaxPathLength int
	// MaxIndexEntries aborts Build if the index would exceed this many
	// entries; 0 means unlimited.
	MaxIndexEntries int
	// MaxTotalSteps caps the total expanded size of a query's normal
	// form (summed steps over all disjuncts) — the bound that keeps
	// bounded repetitions such as (a|b){1,15} from "succeeding" into huge
	// operator trees. 0 uses the library default.
	MaxTotalSteps int
	// CompactRatio is the delta/base entry ratio beyond which ApplyBatch
	// schedules a background compaction of the update tiers into a
	// fresh immutable index. 0 uses DefaultCompactRatio; a negative
	// value disables automatic compaction (Compact can still be called
	// explicitly).
	CompactRatio float64
	// Shards, when > 1, partitions the index by source node into that
	// many in-process shards: Build constructs one index partition per
	// shard, queries run the unsharded plan and read each segment across
	// the shards' runs, and SaveShardedIndex/Open round-trip the
	// layout as a directory of per-shard v4 files plus a manifest. 0 or 1
	// keeps the single-index layout.
	Shards int
}

// DefaultCompactRatio is the automatic-compaction trigger: once delta
// runs hold more than this fraction of the base index's entries, the
// tier stack is folded in the background. Below it, the two-run merge at
// scan time costs little; above it, the fold is worth its one-time copy.
const DefaultCompactRatio = 0.25

// DB is an RPQ database: a frozen graph plus its k-path index and
// selectivity histogram, served through an atomically swappable engine
// snapshot. Reads are wait-free against writes: every query runs over
// the snapshot current when it started, ApplyBatch publishes a
// successor snapshot (graph + one more update tier) with one pointer
// store, and compaction folds the accumulated tiers back into an
// immutable index in the background.
//
// A DB is safe for concurrent use: Query, QueryWith, QueryFrom,
// QueryParallel, Explain, and the read accessors may be called from any
// number of goroutines, SetDefaultStrategy is atomic, and ApplyBatch /
// Compact serialize among themselves without blocking readers. Serve
// adds request counting and streaming on top.
type DB struct {
	engine          atomic.Pointer[core.Engine]
	defaultStrategy atomic.Int32

	// mu serializes mutations (ApplyBatch, Compact): single writer,
	// many wait-free readers.
	mu           sync.Mutex
	compactRatio float64
	compacting   atomic.Bool
	closed       atomic.Bool    // set by Close; stops new background compactions
	compactWG    sync.WaitGroup // in-flight background compactions, awaited by Close
	batches      atomic.Int64   // ApplyBatch calls that produced a new epoch
	compactions  atomic.Int64   // completed compactions

	// compactMu serializes compactions end to end (the incremental fold
	// runs outside mu so batches keep flowing); foldActive gates tier
	// merging off while a fold is in flight, because installing the fold
	// requires its source tiers to survive as a prefix of the stack.
	compactMu  sync.Mutex
	foldActive atomic.Bool

	// dur is the durable update state (WAL, spills, checkpoints) of a
	// DB opened with BuildDurable/OpenDurable; nil otherwise.
	dur *durableState

	// baseCloser releases the storage opened with the DB (the mapped
	// index file of Open); update snapshots layer over it without
	// changing what must eventually be closed.
	baseCloser io.Closer
}

// newDB wraps an engine in a DB with the default strategy set.
func newDB(engine *core.Engine, closer io.Closer, compactRatio float64) *DB {
	db := &DB{baseCloser: closer}
	if compactRatio == 0 {
		compactRatio = DefaultCompactRatio
	}
	db.compactRatio = compactRatio
	db.engine.Store(engine)
	db.SetDefaultStrategy(StrategyMinSupport)
	return db
}

// eng returns the current engine snapshot. Callers capture it once per
// operation so a concurrent swap cannot split one request across two
// snapshots.
func (db *DB) eng() *core.Engine { return db.engine.Load() }

// Build freezes g (if needed), constructs the k-path index and
// histogram, and returns a queryable database.
func Build(g *Graph, opts Options) (*DB, error) {
	if g == nil {
		return nil, fmt.Errorf("pathdb: nil graph")
	}
	g.Freeze()
	engine, err := core.NewEngine(g, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return newDB(engine, nil, opts.CompactRatio), nil
}

// SetDefaultStrategy changes the strategy used by Query. The initial
// default is StrategyMinSupport, the paper's recommended configuration.
// The switch is atomic, so it may race with in-flight queries (each
// query reads the default once).
func (db *DB) SetDefaultStrategy(s Strategy) { db.defaultStrategy.Store(int32(s)) }

// DefaultStrategy returns the strategy Query currently uses.
func (db *DB) DefaultStrategy() Strategy { return Strategy(db.defaultStrategy.Load()) }

// Pair is a query answer pair of node identifiers.
type Pair = pathindex.Pair

// ErrIndexClosed is the error (matched with errors.Is) behind queries
// and updates that start after DB.Close has released a memory-mapped
// index: the race with Close is lost deterministically instead of
// faulting on unmapped pages.
var ErrIndexClosed = pathindex.ErrClosed

// ErrGraphMismatch is the error (matched with errors.Is) behind an open
// of, or a query over, an index that names nodes the graph does not
// have: the index file was built from a different graph than the one
// loaded (for example from a generated graph rather than its saved edge
// list, where identifiers follow file order and isolated nodes vanish).
var ErrGraphMismatch = pathindex.ErrGraphMismatch

// ErrCorrupt is the error (matched with errors.Is) behind an open of an
// index file whose header, directories or block directories fail their
// checksum or structure checks, and behind a query, update or load that
// read a block whose bytes fail theirs: the index file was damaged, and
// rebuilding it with `rpq build` repairs it. A query that meets a
// corrupt block fails; it never answers from the blocks it could read.
var ErrCorrupt = pathindex.ErrCorrupt

// Result is a query answer.
type Result struct {
	// Pairs are the answer (source, target) node identifiers.
	Pairs []Pair
	// Names are the same answers as node-name tuples.
	Names [][2]string
	// Stats describes the evaluation (timings, plan estimates,
	// intermediate result sizes).
	Stats core.Stats
}

// Query evaluates an RPQ under the database's default strategy.
func (db *DB) Query(query string) (*Result, error) {
	return db.QueryWith(query, db.DefaultStrategy())
}

// QueryContext is Query under a cancellation scope: once ctx is done —
// cancelled or past its deadline — every operator of the running tree
// stops at its next batch boundary and ctx's error is returned. A cancelled
// query never returns partial pairs as an answer.
func (db *DB) QueryContext(ctx context.Context, query string) (*Result, error) {
	return db.QueryWithContext(ctx, query, db.DefaultStrategy())
}

// QueryWith evaluates an RPQ under an explicit strategy.
func (db *DB) QueryWith(query string, strategy Strategy) (*Result, error) {
	return db.QueryWithContext(context.Background(), query, strategy)
}

// QueryWithContext is QueryWith under a cancellation scope (see
// QueryContext).
func (db *DB) QueryWithContext(ctx context.Context, query string, strategy Strategy) (*Result, error) {
	e := db.eng()
	res, err := e.EvalQueryContext(ctx, query, strategy)
	if err != nil {
		return nil, err
	}
	return namedResult(e, res)
}

// namedResult resolves res's pairs against the graph of e, the snapshot
// that produced them: a newer epoch's graph may have more nodes, an
// older one fewer.
func namedResult(e *core.Engine, res *core.Result) (*Result, error) {
	names, err := e.NamedPairs(res.Pairs)
	if err != nil {
		return nil, err
	}
	return &Result{Pairs: res.Pairs, Names: names, Stats: res.Stats}, nil
}

// QueryFrom evaluates an RPQ from a single named source node, returning
// the names of reachable targets sorted by node identifier. It uses the
// index's ⟨path, source⟩ prefix lookups instead of materializing the
// full pair relation, so it is much faster than Query for selective
// sources.
func (db *DB) QueryFrom(query, source string) ([]string, error) {
	return db.eng().EvalQueryFrom(query, source)
}

// QueryFromContext is QueryFrom under a cancellation scope: its
// operators check ctx at batch boundaries, as Query's do.
func (db *DB) QueryFromContext(ctx context.Context, query, source string) ([]string, error) {
	return db.eng().EvalQueryFromContext(ctx, query, source)
}

// QueryParallel evaluates an RPQ with the disjuncts of its expansion
// drained concurrently by up to `workers` goroutines, which feed one
// gather below the deduplicating union. Results equal QueryWith's up to
// order, and so do the statistics, plus the gather's own rows.
func (db *DB) QueryParallel(query string, strategy Strategy, workers int) (*Result, error) {
	return db.QueryParallelContext(context.Background(), query, strategy, workers)
}

// QueryParallelContext is QueryParallel under a cancellation scope:
// every operator checks ctx at batch boundaries, so cancellation winds
// down all workers within about one batch each.
func (db *DB) QueryParallelContext(ctx context.Context, query string, strategy Strategy, workers int) (*Result, error) {
	expr, err := rpq.Parse(query)
	if err != nil {
		return nil, err
	}
	e := db.eng()
	prep, err := e.Compile(expr, strategy)
	if err != nil {
		return nil, err
	}
	res, err := prep.ExecuteParallelContext(ctx, workers)
	if err != nil {
		return nil, err
	}
	return namedResult(e, res)
}

// SaveIndexV3 persists the k-path index to a file in the current index
// format, v4 (the name predates it): block-compressed delta+varint
// packed runs, typically a fifth to a quarter of the raw pairs, with
// restart points for seeks and a CRC32C per block. It is the one index
// file format. The
// graph itself is not stored: Open serves the file over the same graph
// (reloaded from its edge list) by block-granular decode-on-demand, and
// BuildWithIndex decodes it onto the heap. Pending update tiers are
// folded and shards merged into the one file.
func (db *DB) SaveIndexV3(path string) error {
	st := db.eng().Storage()
	if err := st.Pin(); err != nil {
		return err
	}
	defer st.Unpin()
	ix, err := pathindex.Materialize(st)
	if err != nil {
		return err
	}
	return ix.Save(path)
}

// SaveShardedIndex persists a sharded index as a directory: one file in
// the current index format (v4) per shard plus a manifest describing
// the partitioning, written under a temporary name and renamed into
// place. Open auto-detects the layout
// and restores the same shard structure; pending update tiers are folded
// into the saved shards. The DB must have been built with
// Options.Shards > 1 (or opened from a sharded layout); use SaveIndexV3
// to fold a sharded index into one file.
func (db *DB) SaveShardedIndex(dir string) error {
	st := db.eng().Storage()
	if _, ok := pathindex.AsSharded(st); !ok {
		return fmt.Errorf("pathdb: index is not sharded; build with Options.Shards > 1")
	}
	if err := st.Pin(); err != nil {
		return err
	}
	defer st.Unpin()
	if ls, ok := st.(*pathindex.Levels); ok {
		var err error
		if st, err = ls.Compacted(); err != nil {
			return err
		}
	}
	return pathindex.SaveAtomic(st, dir)
}

// Open restores a ready-to-serve database from a graph edge-list file
// and an index written by SaveIndexV3, SaveShardedIndex, or the `rpq
// build` command, without rebuilding anything: the file is
// memory-mapped and served by block-granular decode-on-scan over its
// compressed runs, so open time is independent of the relation payload.
// Index files of the retired formats v1–v3 are refused with an error
// naming the version; rebuild them with `rpq build`. A file whose
// metadata fails its checksum is refused with ErrCorrupt, and so is any
// later query that reads a block whose payload fails its own. The returned DB
// serves exactly like one produced by Build with zero-valued non-K
// Options; a DB built with explicit rewrite limits or histogram
// resolution should be reopened with OpenWith and the same Options to
// answer identically. Call Close to release the storage when done.
func Open(graphPath, indexPath string) (*DB, error) {
	return OpenWith(graphPath, indexPath, Options{})
}

// OpenWith is Open with explicit engine options (histogram resolution,
// expansion limits). Options.K must be zero or match the
// saved index; the index itself is never rebuilt.
func OpenWith(graphPath, indexPath string, opts Options) (*DB, error) {
	g, err := graph.LoadEdgeList(graphPath)
	if err != nil {
		return nil, fmt.Errorf("pathdb: loading graph: %w", err)
	}
	engine, closer, err := openEngine(indexPath, g, opts)
	if err != nil {
		return nil, err
	}
	return newDB(engine, closer, opts.CompactRatio), nil
}

// openEngine opens the saved index at indexPath — one file, or a
// sharded directory — over g and
// wraps it in an engine. The closer releases the opened storage. An
// index that names nodes g does not have fails with ErrGraphMismatch.
func openEngine(indexPath string, g *Graph, opts Options) (*core.Engine, io.Closer, error) {
	ix, err := pathindex.Open(indexPath, g)
	if err != nil {
		return nil, nil, err
	}
	closer, _ := ix.(io.Closer)
	engine, err := core.NewEngineFromStorage(ix, opts.coreOptions())
	if err != nil {
		if closer != nil {
			closer.Close()
		}
		return nil, nil, err
	}
	return engine, closer, nil
}

// Close releases resources held by the database: for a DB produced by
// Open this unmaps the index file. Close is safe to call concurrently
// with queries: the mapped index is reader-refcounted, so Close blocks
// until in-flight queries over it drain, and operations that would
// still read the mapping afterwards fail with ErrIndexClosed instead
// of faulting. Note that a Compact (explicit or automatic) folds the
// index onto the heap — after it, the DB no longer reads the file, so
// Close merely unmaps it and queries continue to work. Close also
// synchronizes with the automatic background compaction
// (Options.CompactRatio): compactions that have not started are
// stopped and one in flight is waited out before the storage is
// released. Close on a Build-produced DB releases nothing but still
// performs that synchronization.
func (db *DB) Close() error {
	// Stop background compactions first: a compaction that has not
	// started yet observes closed and backs off; one in flight is waited
	// out, so it can never swap a fresh engine into a closed DB or touch
	// the mapping mid-release.
	db.closed.Store(true)
	db.compactWG.Wait()
	var err error
	if db.dur != nil {
		err = db.dur.log.Close()
	}
	if db.baseCloser != nil {
		if cerr := db.baseCloser.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// LabeledEdge is one edge of an update batch: src --label--> dst by
// name. Names may reference existing nodes and labels or introduce new
// ones, exactly as Graph.AddEdge.
type LabeledEdge = graph.LabeledEdge

// ApplyBatch adds a batch of edges to the database without rebuilding
// the index. The update is computed off-line — a delta of every new
// length-≤K path the batch completes, joined against the immutable base
// index — and then published as a new engine snapshot with one atomic
// pointer swap, so concurrent queries never block and never observe a
// half-applied batch: a query runs either entirely before or entirely
// after the swap. Duplicate edges are tolerated and ignored.
//
// On a durable DB (BuildDurable/OpenDurable) the batch is appended to
// the write-ahead log — fsync'd, CRC-framed, atomic per batch — before
// the successor snapshot becomes visible, so an acknowledged batch
// survives a crash at any point.
//
// If the accumulated tiers exceed Options.CompactRatio of the base
// index, a background compaction is scheduled (see Compact). ApplyBatch
// calls serialize among themselves; an empty batch is a no-op.
func (db *DB) ApplyBatch(edges []LabeledEdge) error {
	if len(edges) == 0 {
		return nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	e := db.eng()
	var ne *core.Engine
	var err error
	if db.dur != nil {
		// Compute the successor first so a rejected batch never reaches
		// the log, then log it before publishing: everything visible is
		// durable, and a logged-but-unpublished batch (crash window) is
		// simply replayed on the next open.
		ne, err = e.ApplyBatchTagged(edges, db.dur.log.NextSeq())
		if err != nil {
			return err
		}
		if ne != e {
			payload := wal.EncodeBatch(wal.BatchRecord{Epoch: ne.Epoch(), Edges: edges})
			if _, err := db.dur.append(wal.TypeBatch, payload); err != nil {
				return err
			}
		}
	} else {
		ne, err = e.ApplyBatch(edges)
		if err != nil {
			return err
		}
	}
	if ne != e {
		db.engine.Store(ne)
		db.batches.Add(1)
	}
	db.maintainTiers()
	db.maybeCompact()
	return nil
}

// maybeCompact schedules a background compaction when the current
// snapshot's update tiers have outgrown the configured ratio. At most
// one compaction runs at a time. Called with db.mu held.
func (db *DB) maybeCompact() {
	if db.compactRatio < 0 {
		return
	}
	ls, ok := db.eng().Storage().(*pathindex.Levels)
	if !ok || ls.DeltaRatio() < db.compactRatio {
		return
	}
	if !db.compacting.CompareAndSwap(false, true) {
		return
	}
	// The WaitGroup is bumped here, before the goroutine exists, so
	// Close (which sets closed and then waits) either observes the count
	// and waits the compaction out, or the goroutine observes closed and
	// backs off — an engine can never be swapped into a closed DB.
	db.compactWG.Add(1)
	go func() {
		defer db.compactWG.Done()
		defer db.compacting.Store(false)
		if db.closed.Load() {
			return
		}
		// A failed background compaction (e.g. the DB was closed under
		// it) is dropped; the tier stack keeps serving correctly and the
		// next ApplyBatch re-triggers.
		_ = db.Compact()
	}()
}

// Compact folds the current snapshot's update tiers into a fresh
// immutable heap index and atomically swaps the compacted snapshot in,
// resetting scan cost to one run per path. The fold is incremental:
// bounded steps (DurabilityOptions.CompactBudget entries each) run
// outside the update lock, so batches keep applying mid-compaction and
// no single step approaches the cost of a full rebuild; tiers pushed
// while the fold runs are re-stacked over the folded base when it is
// installed. Queries keep flowing throughout. On a durable DB a
// completed compaction is persisted as a checkpoint — graph snapshot
// plus v4 index — and the WAL is truncated to the suffix the checkpoint
// does not cover. It is a no-op when no updates have been applied since
// the last compaction.
func (db *DB) Compact() error {
	db.compactMu.Lock()
	defer db.compactMu.Unlock()

	db.mu.Lock()
	job, err := db.eng().StartCompact()
	if job == nil || err != nil {
		db.mu.Unlock()
		return err
	}
	db.foldActive.Store(true)
	db.mu.Unlock()
	defer db.foldActive.Store(false)

	budget := DefaultCompactBudget
	if db.dur != nil {
		budget = db.dur.opts.compactBudget()
	}
	for {
		t0 := time.Now()
		done := job.Step(budget)
		db.noteCompactStep(time.Since(t0).Microseconds())
		if done {
			break
		}
	}

	db.mu.Lock()
	ne, err := db.eng().FinishCompact(job)
	if err != nil {
		db.mu.Unlock()
		job.Abort()
		return err
	}
	db.engine.Store(ne)
	db.compactions.Add(1)
	db.mu.Unlock()

	if db.dur != nil {
		return db.checkpoint(job)
	}
	return nil
}

// UpdateStats describes the DB's live-update state.
type UpdateStats struct {
	// Epoch is the current snapshot number (0 until the first
	// ApplyBatch; +1 per applied batch or compaction).
	Epoch uint64
	// AppliedBatches and Compactions count completed mutations.
	AppliedBatches int64
	Compactions    int64
	// BaseEntries and DeltaEntries split the current index between the
	// immutable base and the accumulated update tiers (DeltaEntries is 0
	// right after a compaction); DeltaRatio is their quotient, compared
	// against Options.CompactRatio.
	BaseEntries  int
	DeltaEntries int
	DeltaRatio   float64
	// Tiers is the depth of the current update tier stack (0 for a
	// freshly built or compacted index).
	Tiers int
}

// UpdateStats returns a snapshot of the live-update state.
func (db *DB) UpdateStats() UpdateStats {
	e := db.eng()
	st := UpdateStats{
		Epoch:          e.Epoch(),
		AppliedBatches: db.batches.Load(),
		Compactions:    db.compactions.Load(),
		BaseEntries:    e.Storage().NumEntries(),
	}
	if ls, ok := e.Storage().(*pathindex.Levels); ok {
		st.BaseEntries = ls.BaseEntries()
		st.DeltaEntries = ls.DeltaEntries()
		st.DeltaRatio = ls.DeltaRatio()
		st.Tiers = len(ls.Tiers())
	}
	return st
}

// ShardStats describes the DB's shard layout; Shards is 0 for an
// unsharded database.
type ShardStats struct {
	// Shards is the number of in-process index partitions.
	Shards int `json:"shards"`
	// Partitioner names the source→shard assignment ("hash").
	Partitioner string `json:"partitioner,omitempty"`
	// EntriesPerShard is each shard's ⟨path, src, dst⟩ entry count, in
	// shard order — the balance evidence for the partitioning function.
	EntriesPerShard []int `json:"entries_per_shard,omitempty"`
}

// ShardStats returns a snapshot of the shard layout of the current
// engine snapshot.
func (db *DB) ShardStats() ShardStats {
	ss, ok := pathindex.AsSharded(db.eng().Storage())
	if !ok {
		return ShardStats{}
	}
	part := ss.Partitioner()
	st := ShardStats{Shards: part.NumShards()}
	switch part.(type) {
	case pathindex.HashPartitioner:
		st.Partitioner = "hash"
	default:
		st.Partitioner = fmt.Sprintf("%T", part)
	}
	for i := 0; i < st.Shards; i++ {
		st.EntriesPerShard = append(st.EntriesPerShard, ss.Shard(i).NumEntries())
	}
	return st
}

// BuildWithIndex opens a database over g using an index file saved by
// SaveIndexV3 instead of rebuilding it, decoding (and so verifying) the
// whole file onto the heap. The index must have been built from an
// identical graph; the label vocabulary is verified on load. Open serves
// the same file without the upfront decode.
func BuildWithIndex(g *Graph, indexPath string, opts Options) (*DB, error) {
	if g == nil {
		return nil, fmt.Errorf("pathdb: nil graph")
	}
	g.Freeze()
	ix, err := pathindex.Load(indexPath, g)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewEngineFromStorage(ix, core.Options{
		K:                ix.K(),
		HistogramBuckets: opts.HistogramBuckets,
		MaxDisjuncts:     opts.MaxDisjuncts,
		MaxPathLength:    opts.MaxPathLength,
		MaxTotalSteps:    opts.MaxTotalSteps,
	})
	if err != nil {
		return nil, err
	}
	return newDB(engine, nil, opts.CompactRatio), nil
}

// Explain returns the physical execution plan for a query as text.
func (db *DB) Explain(query string, strategy Strategy) (string, error) {
	return db.eng().Explain(query, strategy)
}

// Graph returns the underlying (frozen) graph of the current snapshot.
func (db *DB) Graph() *Graph { return db.eng().Graph() }

// K returns the index locality parameter.
func (db *DB) K() int { return db.eng().K() }

// IndexStats describes the built k-path index.
type IndexStats struct {
	Entries     int     // ⟨path, source, target⟩ entries
	LabelPaths  int     // distinct non-empty label paths of length ≤ K
	PathsKCount int     // |paths_k(G)|, the selectivity denominator
	BuildMillis float64 // index construction time

	// FileBytes is the on-disk size of the index for file-backed storage
	// (an opened index file); 0 for heap-backed indexes.
	FileBytes int
	// CompressionRatio is uncompressed payload bytes (8 per entry) over
	// FileBytes; 0 when FileBytes is 0.
	CompressionRatio float64
	// BlocksDecoded and BytesDecoded are cumulative decompression
	// counters for file-backed storage (see also Stats.BlocksDecoded for the
	// per-query delta); 0 for storage that decodes nothing.
	BlocksDecoded int64
	BytesDecoded  int64
}

// IndexStats returns statistics about the index.
func (db *DB) IndexStats() IndexStats {
	storage := db.eng().Storage()
	st := storage.Stats()
	out := IndexStats{
		Entries:     st.Entries,
		LabelPaths:  st.LabelPaths,
		PathsKCount: st.PathsKCount,
		BuildMillis: float64(st.Duration.Microseconds()) / 1000.0,
	}
	if f, ok := storage.(interface{ FileBytes() int }); ok {
		out.FileBytes = f.FileBytes()
		if out.FileBytes > 0 {
			out.CompressionRatio = float64(8*out.Entries) / float64(out.FileBytes)
		}
	}
	if d, ok := storage.(interface{ DecodeStats() (int64, int64) }); ok {
		out.BlocksDecoded, out.BytesDecoded = d.DecodeStats()
	}
	return out
}

// Selectivity returns the histogram's selectivity estimate for a label
// path given as a textual query (which must be a plain composition of
// steps no longer than K), e.g. "knows/worksFor".
func (db *DB) Selectivity(labelPath string) (float64, error) {
	expr, err := rpq.Parse(labelPath)
	if err != nil {
		return 0, err
	}
	steps, err := asSteps(expr)
	if err != nil {
		return 0, err
	}
	e := db.eng()
	if len(steps) > e.K() {
		return 0, fmt.Errorf("pathdb: label path longer than index k=%d", e.K())
	}
	p, ok := pathindex.Resolve(e.Graph(), steps)
	if !ok {
		return 0, nil // unknown labels: empty relation
	}
	return e.Histogram().Selectivity(p), nil
}

// ServeOptions configures DB.Serve. It has no fields; it stays so that
// existing ServeOptions{} literals keep compiling.
type ServeOptions struct{}

// ServeStats describe a Server's request traffic: total requests and
// errors.
type ServeStats = core.ServeStats

// Server is a thread-safe query-serving front end over a DB: any number
// of client goroutines may call Query and QueryWith concurrently. Each
// request parses and plans its query on the DB snapshot current at the
// call, then executes over that snapshot; nothing but the request and
// error counters is shared between requests.
type Server struct {
	db       *DB
	srv      *core.Server
	strategy Strategy
}

// Serve returns a serving front end using the DB's default strategy (as
// read at this moment) for Query. Servers track the DB's current
// snapshot: after ApplyBatch or Compact, new requests run over the new
// epoch.
func (db *DB) Serve(_ ServeOptions) *Server {
	return &Server{
		db:       db,
		srv:      core.NewServer(core.EngineSourceFunc(db.eng), core.ServeOptions{}),
		strategy: db.DefaultStrategy(),
	}
}

// Query evaluates an RPQ under the server's strategy.
func (s *Server) Query(query string) (*Result, error) {
	return s.QueryWith(query, s.strategy)
}

// QueryWith evaluates an RPQ under an explicit strategy.
func (s *Server) QueryWith(query string, strategy Strategy) (*Result, error) {
	return s.QueryWithContext(context.Background(), query, strategy)
}

// QueryContext is Query under a cancellation scope (see DB.QueryContext
// for the cancellation contract).
func (s *Server) QueryContext(ctx context.Context, query string) (*Result, error) {
	return s.QueryWithContext(ctx, query, s.strategy)
}

// QueryWithContext is QueryWith under a cancellation scope.
func (s *Server) QueryWithContext(ctx context.Context, query string, strategy Strategy) (*Result, error) {
	prep, err := s.srv.Prepare(query, strategy)
	if err != nil {
		return nil, err
	}
	res, err := prep.ExecuteContext(ctx)
	if err != nil {
		return nil, err
	}
	return namedResult(prep.Engine(), res)
}

// Stats describes one query evaluation (timings, plan estimates,
// cardinalities); it is the type of Result.Stats and of the statistics
// StreamPairs and StreamWith return.
type Stats = core.Stats

// StreamPairs evaluates an RPQ and delivers the answer incrementally as
// node-ID batches: fn is called once per result batch, in stream order,
// before the next batch is computed — the full answer is never
// materialized by the server. g is the graph of the engine snapshot
// that produced the pairs (a newer epoch's graph may have more nodes),
// so g.NodeName resolves them; pairs is reused across calls, so fn must
// copy anything it retains. A non-nil error from fn aborts the
// evaluation and is returned; once ctx is done the operators stop and
// ctx's error is returned. The returned Stats describe the run up to
// that point (ResultPairs counts pairs actually delivered), so callers
// can report them for aborted requests too.
func (s *Server) StreamPairs(ctx context.Context, query string, strategy Strategy, fn func(pairs []Pair, g *Graph) error) (Stats, error) {
	prep, err := s.srv.Prepare(query, strategy)
	if err != nil {
		return Stats{}, err
	}
	g := prep.Engine().Graph()
	return prep.StreamContext(ctx, func(batch []Pair) error {
		return fn(batch, g)
	})
}

// StreamWith is StreamPairs with the node names of each batch resolved:
// names[i] holds the source and target name of pairs[i]. Both slices
// are reused across calls (one names buffer per StreamWith call, grown
// to the largest batch), so fn must copy anything it retains.
func (s *Server) StreamWith(ctx context.Context, query string, strategy Strategy, fn func(pairs []Pair, names [][2]string) error) (Stats, error) {
	var names [][2]string
	return s.StreamPairs(ctx, query, strategy, func(pairs []Pair, g *Graph) error {
		if cap(names) < len(pairs) {
			names = make([][2]string, len(pairs))
		}
		names = names[:len(pairs)]
		table := g.NodeNames()
		for i, p := range pairs {
			if int(p.Src) >= len(table) || int(p.Dst) >= len(table) {
				return fmt.Errorf("pathdb: naming pair (%d,%d): %w", p.Src, p.Dst, ErrGraphMismatch)
			}
			names[i] = [2]string{table[p.Src], table[p.Dst]}
		}
		return fn(pairs, names)
	})
}

// ExplainWith returns the physical plan text for query under strategy,
// planned on the current snapshot like QueryWith.
func (s *Server) ExplainWith(query string, strategy Strategy) (string, error) {
	prep, err := s.srv.Prepare(query, strategy)
	if err != nil {
		return "", err
	}
	return prep.Explain(), nil
}

// Strategy returns the server's default strategy (fixed at Serve time).
func (s *Server) Strategy() Strategy { return s.strategy }

// Epoch returns the epoch of the engine snapshot new requests would run
// against right now.
func (s *Server) Epoch() uint64 { return s.srv.Engine().Epoch() }

// Stats returns a snapshot of the server's request counters.
func (s *Server) Stats() ServeStats { return s.srv.Stats() }

// DB returns the served database.
func (s *Server) DB() *DB { return s.db }

// asSteps flattens a pure composition of steps.
func asSteps(e rpq.Expr) ([]rpq.Step, error) {
	switch v := e.(type) {
	case rpq.Step:
		return []rpq.Step{v}, nil
	case rpq.Concat:
		var out []rpq.Step
		for _, part := range v.Parts {
			sub, err := asSteps(part)
			if err != nil {
				return nil, err
			}
			out = append(out, sub...)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("pathdb: %s is not a plain label path", e)
	}
}
