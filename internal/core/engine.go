// Package core implements the paper's primary contribution end to end:
// the RPQ evaluation engine of Fletcher, Peters & Poulovassilis
// (EDBT 2016) that compiles regular path queries into physical plans over
// a k-path index and executes them.
//
// An Engine owns a frozen graph, its k-path index I_{G,k}, and the
// selectivity histogram sel_{G,k}. Query processing follows Section 4 of
// the paper: (1) expand bounded recursion, (2) pull unions to the top
// level, (3) generate a physical plan per disjunct under one of the four
// strategies (naive, semiNaive, minSupport, minJoin), then execute the
// operator tree and deduplicate the union of the disjunct results.
//
// Kleene closures are not expanded: the rewriter keeps them as
// first-class factors, the planner turns each into a Closure node, and
// the executor condenses the closure body into strongly connected
// components and walks the component DAG from every source.
//
// A single-source query (EvalFrom, EvalQueryFrom) is the same pipeline
// with the source as a plan input: CompileFrom plans each disjunct as a
// chain whose first scan reads only the source's ⟨path, source⟩ prefix
// run and whose later segments are probe joins, a leading star closes
// the bound identity {(src, src)}, and the plan runs through the same
// operators as any other.
//
// # Concurrency
//
// An Engine is immutable after construction: the graph, index, and
// histogram are never written again, and every evaluation entry point
// (Compile, CompileFrom, Eval, EvalQuery, EvalFrom, Prepared.Execute,
// Prepared.ExecuteParallel) builds its executor state — operator trees,
// batch buffers, dedup sets, statistics — per call. All of them are safe
// for concurrent use by any number of goroutines over one Engine, as is
// sharing a single Prepared across goroutines (each Execute call gets a
// fresh operator tree). Engine.Serve adds request counting on top.
//
// Within one evaluation, exec.Gather is the only source of concurrency:
// ExecuteParallel drains the disjuncts under one below the root union.
// A plan over sharded storage is the unsharded plan and runs on one
// goroutine. Every entry point runs through Prepared.run, which stops
// and awaits the gather senders before it reads statistics or releases
// the storage pin.
//
// Immutability does not mean the data is static: updates are
// functional. Engine.ApplyBatch returns a successor engine (epoch+1)
// over the extended graph and a delta overlay of the same base index,
// and Engine.Compact folds an accumulated overlay into a fresh index;
// the serving layer publishes successors with an atomic pointer swap
// (see EngineSource) while in-flight evaluations finish on the
// snapshot they started with.
package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/histogram"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

// Options configures engine construction.
type Options struct {
	// K is the path-index locality parameter (maximum indexed path
	// length). Must be at least 1.
	K int
	// HistogramBuckets sets the equi-depth histogram resolution; 0 uses
	// exact per-path statistics.
	HistogramBuckets int
	// MaxDisjuncts, MaxPathLength, and MaxTotalSteps bound query
	// expansion; 0 uses the rewrite package defaults. MaxTotalSteps caps
	// the summed size of all expanded disjuncts, which is what bounds the
	// operator trees of bounded repetitions such as (a|b){1,15}.
	MaxDisjuncts  int
	MaxPathLength int
	MaxTotalSteps int
	// MaxIndexEntries aborts index construction beyond this size; 0
	// means unlimited.
	MaxIndexEntries int
	// HashOnly replaces group joins with hash joins (ablation): every
	// unbound join is a hash join.
	HashOnly bool
	// NoIntermediateDedup disables the per-join Distinct operators
	// (ablation). Answers are sets of pairs, so joins deduplicate by
	// default: without it, duplicate witnesses multiply through hub
	// nodes and intermediate streams grow combinatorially. It affects
	// hash and probe joins only, so unbound plans only under HashOnly:
	// a group join dedups each source's targets itself.
	NoIntermediateDedup bool
	// NoDerivedInverses recomputes inverse path relations instead of
	// deriving them (ablation).
	NoDerivedInverses bool
	// Shards, when > 1, partitions the index by source node into that
	// many in-process shards (hash partitioning): NewEngine builds a
	// sharded index, and plans, the same as over one index, read each
	// segment's shard runs one after another. 0 or 1 keeps the
	// single-index layout.
	Shards int
}

// Engine evaluates RPQs over one indexed graph. The graph, index, and
// histogram are frozen by construction and nothing else is mutable, so
// one Engine may serve any number of concurrent callers; see the package
// comment for the full contract.
//
// The index is held through the pathindex.Storage interface, so an
// engine serves heap-built indexes and memory-mapped compressed index
// files (pathindex.OpenCompressed) identically — the executor's scans
// and prefix lookups run through the storage's cursors, whatever its
// layout.
type Engine struct {
	g    *graph.Graph
	ix   pathindex.Storage
	hist *histogram.Histogram
	opts Options

	// epoch numbers the engine within a lineage of update snapshots:
	// ApplyBatch and Compact return successors with epoch+1, the WAL
	// stamps its records with it, and recovery resumes the lineage from
	// them. A standalone engine is epoch 0.
	epoch uint64
}

// NewEngine builds the k-path index and histogram for g and returns an
// engine. g must be frozen.
func NewEngine(g *graph.Graph, opts Options) (*Engine, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: Options.K must be at least 1, got %d", opts.K)
	}
	if opts.HistogramBuckets < 0 {
		return nil, fmt.Errorf("core: Options.HistogramBuckets must be non-negative, got %d", opts.HistogramBuckets)
	}
	bopts := pathindex.BuildOptions{
		MaxEntries:        opts.MaxIndexEntries,
		NoDerivedInverses: opts.NoDerivedInverses,
	}
	if opts.Shards > 1 {
		ix, err := pathindex.BuildSharded(g, opts.K, bopts, pathindex.NewHashPartitioner(opts.Shards))
		if err != nil {
			return nil, fmt.Errorf("core: building sharded path index: %w", err)
		}
		return NewEngineFromStorage(ix, opts)
	}
	ix, err := pathindex.Build(g, opts.K, bopts)
	if err != nil {
		return nil, fmt.Errorf("core: building path index: %w", err)
	}
	return NewEngineFromStorage(ix, opts)
}

// NewEngineFromStorage wraps existing index storage — heap-backed or a
// memory-mapped file (pathindex.OpenStorage) — in an engine, rebuilding only
// the histogram, whose cost is proportional to the number of label
// paths, not to the relation payload. Options.K must be zero or match
// the storage.
func NewEngineFromStorage(ix pathindex.Storage, opts Options) (*Engine, error) {
	if opts.K == 0 {
		opts.K = ix.K()
	}
	if opts.K != ix.K() {
		return nil, fmt.Errorf("core: Options.K=%d does not match index k=%d", opts.K, ix.K())
	}
	if opts.HistogramBuckets < 0 {
		return nil, fmt.Errorf("core: Options.HistogramBuckets must be non-negative, got %d", opts.HistogramBuckets)
	}
	var hist *histogram.Histogram
	if opts.HistogramBuckets > 0 {
		h, err := histogram.BuildEquiDepth(ix, opts.HistogramBuckets)
		if err != nil {
			return nil, fmt.Errorf("core: building histogram: %w", err)
		}
		hist = h
	} else {
		hist = histogram.BuildExact(ix)
	}
	// epoch 0 is the defined value for a never-updated engine (see
	// Epoch); spelled out for the epochkey invariant check.
	return &Engine{g: ix.Graph(), ix: ix, hist: hist, opts: opts, epoch: 0}, nil
}

// Graph returns the engine's graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Storage returns the engine's path-index storage.
func (e *Engine) Storage() pathindex.Storage { return e.ix }

// Histogram returns the engine's selectivity statistics.
func (e *Engine) Histogram() *histogram.Histogram { return e.hist }

// K returns the index locality parameter.
func (e *Engine) K() int { return e.opts.K }

// Epoch returns the engine's update-snapshot number (0 for an engine
// that has never been updated).
func (e *Engine) Epoch() uint64 { return e.epoch }

// pin registers the caller as a reader of the engine's index storage for
// the duration of one evaluation. It returns the paired release func, or
// pathindex.ErrClosed once the storage has been closed — which is how a
// query racing DB.Close fails deterministically instead of faulting on
// unmapped pages. Heap-backed storage pins for free.
func (e *Engine) pin() (func(), error) {
	if err := e.ix.Pin(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e.ix.Unpin, nil
}

// Stats describes one query evaluation.
type Stats struct {
	Disjuncts       int           // label-path disjuncts after rewriting
	Closures        int           // Kleene-closure disjuncts after rewriting
	DroppedEmpty    int           // disjuncts dropped (labels absent from the graph)
	HasEpsilon      bool          // identity disjunct present
	PlanCost        float64       // estimated plan cost
	PlanCard        float64       // estimated result cardinality
	RewriteTime     time.Duration //
	PlanTime        time.Duration //
	ExecTime        time.Duration //
	ResultPairs     int           // actual result cardinality
	OperatorRows    map[string]int
	OperatorBatches map[string]int // batches emitted, by operator kind
	TotalIntermRows int            // summed rows over all operators
	TotalBatches    int            // summed batches over all operators
	// BlocksDecoded and BytesDecoded count the compressed-storage decode
	// work of this evaluation (zero over uncompressed storage): on-disk
	// blocks decompressed and compressed bytes consumed. They are deltas
	// of storage-lifetime counters, so under concurrent evaluations the
	// attribution to one query is approximate; totals are exact.
	BlocksDecoded int64
	BytesDecoded  int64
}

// Result is a query answer: the set R(G) sorted in stream order
// (deduplicated, not globally sorted), plus evaluation statistics.
type Result struct {
	Pairs []pathindex.Pair
	Stats Stats
}

// Prepared is a compiled query: rewritten, resolved, and planned, ready
// for (repeated) execution. Benchmarks use it to separate planning from
// execution cost. A Prepared is immutable and may be executed by many
// goroutines at once; every Execute builds its own operator tree.
type Prepared struct {
	engine   *Engine
	plan     *plan.Plan
	stats    Stats
	strategy plan.Strategy
}

// rewriteOptions returns the engine's expansion limits.
func (e *Engine) rewriteOptions() rewrite.Options {
	return rewrite.Options{
		MaxDisjuncts:  e.opts.MaxDisjuncts,
		MaxPathLength: e.opts.MaxPathLength,
		MaxTotalSteps: e.opts.MaxTotalSteps,
	}
}

// resolveSeq resolves a star-factored closure sequence against the
// graph vocabulary. ok=false means the sequence's relation is empty (a
// fixed segment mentions an unknown label). Body sequences with unknown
// labels are dropped from their closure (their relations are empty);
// a closure whose whole body drops is the identity, so the element
// vanishes — a sequence that loses every element this way degenerates
// to ε, which the caller folds into HasEpsilon.
func (e *Engine) resolveSeq(s rewrite.Seq) (plan.Seq, bool) {
	var out plan.Seq
	for _, el := range s.Elems {
		if !el.IsStar() {
			rp, ok := pathindex.Resolve(e.g, el.Seg)
			if !ok {
				return plan.Seq{}, false
			}
			out.Elems = append(out.Elems, plan.SeqElem{Seg: rp})
			continue
		}
		var body []plan.Seq
		for _, bs := range el.Star {
			if rb, ok := e.resolveSeq(bs); ok && len(rb.Elems) > 0 {
				body = append(body, rb)
			}
		}
		if len(body) == 0 {
			continue
		}
		out.Elems = append(out.Elems, plan.SeqElem{Star: body})
	}
	return out, true
}

// Compile parses nothing (the expression is already an AST) but performs
// rewriting, label resolution, and planning under the given strategy.
func (e *Engine) Compile(expr rpq.Expr, strategy plan.Strategy) (*Prepared, error) {
	return e.compile(expr, strategy, nil)
}

// CompileFrom is Compile of the single-source restriction of expr,
// {(src, t) | (src, t) ∈ R(G)}: the source is bound into the plan (see
// plan.PlanQueryFrom), so its scans read only src's prefix runs and its
// joins probe the index per reached node.
func (e *Engine) CompileFrom(expr rpq.Expr, src graph.NodeID) (*Prepared, error) {
	if int(src) >= e.g.NumNodes() {
		return nil, fmt.Errorf("core: source node %d out of range", src)
	}
	return e.compile(expr, plan.SemiNaive, &src)
}

// compile is Compile and CompileFrom: src, when non-nil, binds the
// source (strategy is then semiNaive).
func (e *Engine) compile(expr rpq.Expr, strategy plan.Strategy, src *graph.NodeID) (*Prepared, error) {
	var st Stats
	t0 := time.Now()
	norm, err := rewrite.Normalize(expr, e.rewriteOptions())
	if err != nil {
		return nil, fmt.Errorf("core: rewriting query: %w", err)
	}
	st.RewriteTime = time.Since(t0)

	// Resolve disjuncts against the graph vocabulary; paths mentioning
	// unknown labels have empty relations and are dropped. A closure
	// sequence whose elements all vanish (stars over unknown labels)
	// degenerates to the identity.
	t1 := time.Now()
	hasEpsilon := norm.HasEpsilon
	var disjuncts []pathindex.Path
	for _, p := range norm.Paths {
		rp, ok := pathindex.Resolve(e.g, p)
		if !ok {
			st.DroppedEmpty++
			continue
		}
		disjuncts = append(disjuncts, rp)
	}
	var closures []plan.Seq
	for _, s := range norm.Closures {
		rs, ok := e.resolveSeq(s)
		if !ok {
			st.DroppedEmpty++
			continue
		}
		if len(rs.Elems) == 0 {
			hasEpsilon = true
			continue
		}
		closures = append(closures, rs)
	}
	st.Disjuncts = len(disjuncts)
	st.Closures = len(closures)
	st.HasEpsilon = hasEpsilon

	planner := &plan.Planner{
		K:        e.opts.K,
		Hist:     e.hist,
		NumNodes: e.g.NumNodes(),
		HashOnly: e.opts.HashOnly,
	}
	var pln *plan.Plan
	if src != nil {
		pln, err = planner.PlanQueryFrom(*src, disjuncts, closures, hasEpsilon)
	} else {
		pln, err = planner.PlanQuery(disjuncts, closures, hasEpsilon, strategy)
	}
	if err != nil {
		return nil, fmt.Errorf("core: planning query: %w", err)
	}
	st.PlanTime = time.Since(t1)
	st.PlanCost = pln.Cost()
	st.PlanCard = pln.Card()
	return &Prepared{engine: e, plan: pln, stats: st, strategy: strategy}, nil
}

// Plan returns the physical plan.
func (p *Prepared) Plan() *plan.Plan { return p.plan }

// Engine returns the engine snapshot the query was compiled against;
// executions run over exactly this snapshot even if a Server has since
// swapped in a newer epoch.
func (p *Prepared) Engine() *Engine { return p.engine }

// Explain renders the physical plan as text.
func (p *Prepared) Explain() string { return p.plan.Format(p.engine.g) }

// Execute runs the prepared plan and returns the result set with
// statistics. Each call builds a fresh operator tree, so Execute may be
// called repeatedly (e.g. by benchmarks).
func (p *Prepared) Execute() (*Result, error) {
	return p.ExecuteContext(context.Background())
}

// ExecuteContext is Execute under a cancellation scope: every operator
// of the tree checks ctx at batch boundaries, so once ctx is done the whole
// tree stops within about one batch per level and ExecuteContext
// returns ctx's error. Partial results are never returned as an answer.
func (p *Prepared) ExecuteContext(ctx context.Context) (*Result, error) {
	return p.ExecuteParallelContext(ctx, 0)
}

// ExecuteParallel is Execute with the disjuncts drained concurrently by
// up to workers goroutines: the operator tree puts the disjunct trees
// under one exec.Gather below the root union, which deduplicates their
// merged stream once. A plan of one disjunct, or workers < 2, runs as
// Execute does. Results equal Execute's up to order, and so do the statistics, per-operator rows included, plus
// the gather's own rows.
func (p *Prepared) ExecuteParallel(workers int) (*Result, error) {
	return p.ExecuteParallelContext(context.Background(), workers)
}

// ExecuteParallelContext is ExecuteParallel under a cancellation scope,
// with ExecuteContext's contract.
func (p *Prepared) ExecuteParallelContext(ctx context.Context, workers int) (*Result, error) {
	var pairs []pathindex.Pair
	st, err := p.run(ctx, workers, func(batch []pathindex.Pair) error {
		pairs = append(pairs, batch...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Pairs: pairs, Stats: st}, nil
}

// StreamContext runs the prepared plan and delivers the answer
// incrementally: fn is called once per result batch, in stream order,
// before the next batch is computed — the full answer is never
// materialized on this side. The batch buffer is reused across calls,
// so fn must copy any pairs it retains. A non-nil error from fn aborts
// the run and is returned; once ctx is done the operators stop and
// StreamContext returns ctx's error. The returned Stats describe the
// run up to that point (ResultPairs counts the pairs delivered), so
// streaming front ends can report them even for aborted requests.
func (p *Prepared) StreamContext(ctx context.Context, fn func(batch []pathindex.Pair) error) (Stats, error) {
	return p.run(ctx, 0, fn)
}

// run is the one evaluation loop: it pins the storage, builds the
// operator tree (fanning the disjuncts out over workers senders when
// workers > 1), hands fn every result batch until the tree is exhausted,
// ctx is done or fn fails, and fills the statistics of the run — exec
// time, per-operator counters and decode work — up to that point. A
// corrupt index block that ended a cursor of the tree is the run's
// error (wrapping pathindex.ErrCorrupt): the stream it cut short is not
// the answer.
func (p *Prepared) run(ctx context.Context, workers int, fn func(batch []pathindex.Pair) error) (Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := p.stats
	unpin, err := p.engine.pin()
	if err != nil {
		return st, err
	}
	defer unpin()
	dec, hasDec := p.engine.ix.(decodeStatsProvider)
	var blocks0, bytes0 int64
	if hasDec {
		blocks0, bytes0 = dec.DecodeStats()
	}
	t0 := time.Now()
	op, err := exec.Build(p.plan, p.engine.ix, exec.BuildOptions{
		PerJoinDedup: !p.engine.opts.NoIntermediateDedup,
		Workers:      workers,
		Ctx:          ctx,
	})
	if err != nil {
		return st, fmt.Errorf("core: building operators: %w", err)
	}
	// Registered after the unpin defer, so it runs first even if fn
	// panics: gather senders are stopped and awaited before the storage
	// pin is released.
	defer exec.Quiesce(op)
	buf := make([]pathindex.Pair, exec.DefaultBatchSize)
	total := 0
	var runErr error
	for {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		n := op.NextBatch(buf)
		if n == 0 {
			runErr = ctx.Err()
			break
		}
		total += n
		if err := fn(buf[:n]); err != nil {
			runErr = err
			break
		}
	}
	st.ExecTime = time.Since(t0)
	st.ResultPairs = total
	// A tree abandoned mid-stream still has senders running; their
	// operators' counters are stable only once they are stopped.
	exec.Quiesce(op)
	if err := exec.Err(op); err != nil && runErr == nil {
		runErr = fmt.Errorf("core: reading the index: %w", err)
	}
	es := exec.CollectStats(op)
	st.OperatorRows = es.RowsByOperator
	st.OperatorBatches = es.BatchesByOperator
	st.TotalIntermRows = es.TotalRows
	st.TotalBatches = es.TotalBatches
	if hasDec {
		blocks1, bytes1 := dec.DecodeStats()
		st.BlocksDecoded = blocks1 - blocks0
		st.BytesDecoded = bytes1 - bytes0
	}
	return st, runErr
}

// decodeStatsProvider is the optional storage interface of compressed
// indexes (and overlays over them): storage-lifetime decompression
// counters, read before and after an evaluation to attribute decode work.
type decodeStatsProvider interface {
	DecodeStats() (blocks, bytes int64)
}

// Eval compiles and executes expr under the given strategy.
func (e *Engine) Eval(expr rpq.Expr, strategy plan.Strategy) (*Result, error) {
	prep, err := e.Compile(expr, strategy)
	if err != nil {
		return nil, err
	}
	return prep.Execute()
}

// EvalQuery parses, compiles, and executes a textual query.
func (e *Engine) EvalQuery(query string, strategy plan.Strategy) (*Result, error) {
	return e.EvalQueryContext(context.Background(), query, strategy)
}

// EvalQueryContext is EvalQuery under a cancellation scope (see
// Prepared.ExecuteContext for the cancellation contract).
func (e *Engine) EvalQueryContext(ctx context.Context, query string, strategy plan.Strategy) (*Result, error) {
	expr, err := rpq.Parse(query)
	if err != nil {
		return nil, err
	}
	prep, err := e.Compile(expr, strategy)
	if err != nil {
		return nil, err
	}
	return prep.ExecuteContext(ctx)
}

// Explain parses and compiles a textual query and renders its plan.
func (e *Engine) Explain(query string, strategy plan.Strategy) (string, error) {
	expr, err := rpq.Parse(query)
	if err != nil {
		return "", err
	}
	prep, err := e.Compile(expr, strategy)
	if err != nil {
		return "", err
	}
	return prep.Explain(), nil
}

// EvalFrom computes the single-source answer {t | (src, t) ∈ R(G)}
// without materializing the full pair relation: it runs the bound plan
// of CompileFrom, whose scans are the index's ⟨path, source⟩ prefix
// lookups (the I_{G,k}(⟨p, a⟩) operation of the paper's Example 3.1) and
// whose closures walk only what the bound chain reaches.
//
// Targets are returned sorted ascending.
func (e *Engine) EvalFrom(expr rpq.Expr, src graph.NodeID) ([]graph.NodeID, error) {
	return e.EvalFromContext(context.Background(), expr, src)
}

// EvalFromContext is EvalFrom under a cancellation scope, with
// Prepared.ExecuteContext's contract: once ctx is done the operators
// stop at their next batch boundary and EvalFromContext returns ctx's
// error.
func (e *Engine) EvalFromContext(ctx context.Context, expr rpq.Expr, src graph.NodeID) ([]graph.NodeID, error) {
	prep, err := e.CompileFrom(expr, src)
	if err != nil {
		return nil, err
	}
	var out []graph.NodeID
	if _, err := prep.run(ctx, 0, func(batch []pathindex.Pair) error {
		for _, p := range batch {
			out = append(out, p.Dst)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	slices.Sort(out)
	return out, nil
}

// EvalQueryFrom parses query and computes its single-source answer from
// the named node.
func (e *Engine) EvalQueryFrom(query, srcName string) ([]string, error) {
	return e.EvalQueryFromContext(context.Background(), query, srcName)
}

// EvalQueryFromContext is EvalQueryFrom under a cancellation scope (see
// EvalFromContext).
func (e *Engine) EvalQueryFromContext(ctx context.Context, query, srcName string) ([]string, error) {
	expr, err := rpq.Parse(query)
	if err != nil {
		return nil, err
	}
	src, ok := e.g.LookupNode(srcName)
	if !ok {
		return nil, fmt.Errorf("core: unknown node %q", srcName)
	}
	targets, err := e.EvalFromContext(ctx, expr, src)
	if err != nil {
		return nil, err
	}
	table := e.g.NodeNames()
	names := make([]string, len(targets))
	for i, t := range targets {
		if int(t) >= len(table) {
			return nil, fmt.Errorf("core: naming node %d: %w", t, pathindex.ErrGraphMismatch)
		}
		names[i] = table[t]
	}
	return names, nil
}

// NamedPairs converts result pairs to node-name tuples, for display. A
// pair naming a node the graph does not have — the index was built from
// another graph — yields pathindex.ErrGraphMismatch.
func (e *Engine) NamedPairs(pairs []pathindex.Pair) ([][2]string, error) {
	names := e.g.NodeNames()
	out := make([][2]string, len(pairs))
	for i, p := range pairs {
		if int(p.Src) >= len(names) || int(p.Dst) >= len(names) {
			return nil, fmt.Errorf("core: naming pair (%d,%d): %w", p.Src, p.Dst, pathindex.ErrGraphMismatch)
		}
		out[i] = [2]string{names[p.Src], names[p.Dst]}
	}
	return out, nil
}
