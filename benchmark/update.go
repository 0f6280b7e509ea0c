package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	pathdb "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/wal"
)

// update.durable: one writer applies seed-generated edge batches to a
// durable DB on a fixed schedule, one reader cycles Q1–Q8 over the
// growing tiers. qps, p50_ms and p95_ms are the reader's, as on every
// other workload: what a query costs beside the writes. The writer's
// ApplyBatch latency — from the moment the batch was due until it is
// fsync'd and published — is printed as apply_p50_ms/apply_p95_ms and
// is a per-layer metric of the traced run; README.md says why it could
// not hold an end-to-end bound.
const (
	batchEdges = 16
	// writerPeriod schedules the batches (open loop). A writer that
	// instead waited a fixed gap after each batch would apply more
	// batches the faster the host, so every run would grow a different
	// graph through a different number of compactions and no two runs'
	// latencies would be of the same work; on a schedule every run of a
	// seed applies the same batches at the same times.
	writerPeriod = 150 * time.Millisecond
	// newNodeOdds: one edge in this many ends at a node the graph has
	// not seen, so batches grow the node set as well as the edge set.
	newNodeOdds = 8
	// tailBatches are applied after the final compaction so that every
	// recovery replays the same amount of log over a checkpoint, wherever
	// in a compaction cycle the timed window happened to close.
	tailBatches = 12
)

type updateFixture struct {
	graphPath string
	indexPath string
	durDir    string
	base      *graph.Graph
	db        *pathdb.DB
}

// buildUpdateFixture generates the graph, builds a durable DB over it
// and saves the base files a later OpenDurable needs.
func buildUpdateFixture(dir string, scale float64) (*updateFixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &updateFixture{
		graphPath: filepath.Join(dir, "graph.txt"),
		indexPath: filepath.Join(dir, "index.pix"),
		durDir:    filepath.Join(dir, "durable"),
	}
	var err error
	if fx.base, err = generateGraph(fx.graphPath, scale); err != nil {
		return nil, err
	}
	if fx.db, err = pathdb.BuildDurable(fx.base, pathdb.Options{K: indexK}, pathdb.DurabilityOptions{Dir: fx.durDir}); err != nil {
		return nil, fmt.Errorf("building durable index: %w", err)
	}
	if err := fx.db.SaveIndexV3(fx.indexPath); err != nil {
		return nil, fmt.Errorf("saving index: %w", err)
	}
	return fx, nil
}

func (fx *updateFixture) close() error { return fx.db.Close() }

func (fx *updateFixture) reopen() (*pathdb.DB, error) {
	return pathdb.OpenDurable(fx.graphPath, fx.indexPath, pathdb.Options{}, pathdb.DurabilityOptions{Dir: fx.durDir})
}

// batchGen produces the seed-determined batch sequence: edges between
// uniformly drawn nodes, existing or new.
type batchGen struct {
	r      *rand.Rand
	nodes  []string
	labels []string
	// applied is every edge handed out, for the from-scratch oracle.
	applied []graph.LabeledEdge
}

func newBatchGen(seed int64, g *graph.Graph) *batchGen {
	b := &batchGen{r: rand.New(rand.NewSource(seed)), labels: datasets.AdvogatoLabels}
	for n := 0; n < g.NumNodes(); n++ {
		b.nodes = append(b.nodes, g.NodeName(graph.NodeID(n)))
	}
	return b
}

func (b *batchGen) next() []graph.LabeledEdge {
	edges := make([]graph.LabeledEdge, batchEdges)
	for i := range edges {
		src := b.nodes[b.r.Intn(len(b.nodes))]
		dst := b.nodes[b.r.Intn(len(b.nodes))]
		if b.r.Intn(newNodeOdds) == 0 {
			dst = fmt.Sprintf("grown-%d", len(b.nodes))
			b.nodes = append(b.nodes, dst)
		}
		edges[i] = graph.LabeledEdge{Src: src, Label: b.labels[b.r.Intn(len(b.labels))], Dst: dst}
	}
	b.applied = append(b.applied, edges...)
	return edges
}

// rebuilt returns the final graph built from scratch: the base edges
// and every applied edge, by name.
func (b *batchGen) rebuilt(base *graph.Graph) *graph.Graph {
	g := graph.New()
	for l := 0; l < base.NumLabels(); l++ {
		name := base.LabelName(graph.LabelID(l))
		for _, e := range base.Edges(graph.LabelID(l)) {
			g.AddEdge(base.NodeName(e.Src), name, base.NodeName(e.Dst))
		}
	}
	for _, e := range b.applied {
		g.AddEdge(e.Src, e.Label, e.Dst)
	}
	g.Freeze()
	return g
}

func readerMix() ([]query, []float64) {
	mix := advogato("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8")
	shares := make([]float64, len(mix))
	for i := range shares {
		shares[i] = 1 / float64(len(mix))
	}
	return mix, shares
}

// checkAgainst compares every reader query on db with the automaton
// baseline over g and returns the number of mismatches.
func checkAgainst(db *pathdb.DB, g *graph.Graph, mix []query) (int, error) {
	srv := db.Serve(pathdb.ServeOptions{})
	bad := 0
	for _, q := range mix {
		want, err := pairOracle(g, q.expr)
		if err != nil {
			return 0, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		got, _, err := streamPairs(ctx, srv, q.Text)
		cancel()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", q.Name, err)
		}
		if got != want {
			fmt.Fprintf(os.Stderr, "update.durable: %s answers %d pairs (hash %x), oracle %d (hash %x)\n", q.Name, got.Count, got.Hash, want.Count, want.Hash)
			bad++
		}
	}
	return bad, nil
}

// settle brings the DB to the state space and recovery are measured
// from: every tier folded and checkpointed — the durability directory
// is sized here, when it holds the checkpoint and an empty log — then a
// fixed tail of logged batches for recovery to replay.
func settle(fx *updateFixture, gen *batchGen) (dirBytes int64, err error) {
	if err := fx.db.Compact(); err != nil {
		return 0, fmt.Errorf("final compaction: %w", err)
	}
	if dirBytes, err = treeBytes(fx.durDir); err != nil {
		return 0, err
	}
	for i := 0; i < tailBatches; i++ {
		if err := fx.db.ApplyBatch(gen.next()); err != nil {
			return 0, fmt.Errorf("tail batch: %w", err)
		}
	}
	return dirBytes, nil
}

// recoverAndCheck measures Close → OpenDurable → first answer
// cfg.reopens times, then checks the recovered DB against a from-scratch
// rebuild of the final graph.
func recoverAndCheck(cfg *config, fx *updateFixture, gen *batchGen, mix []query) (recoveryS float64, mismatches int, err error) {
	settleHeap()
	var recov []float64
	db := fx.db
	for i := 0; i < cfg.reopens; i++ {
		if err := db.Close(); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		if db, err = fx.reopen(); err != nil {
			return 0, 0, fmt.Errorf("recovery: %w", err)
		}
		if err := firstPairs(mix[0].Text)(db); err != nil {
			return 0, 0, fmt.Errorf("first query after recovery: %w", err)
		}
		recov = append(recov, seconds(time.Since(t0)))
	}
	fx.db = db
	mismatches, err = checkAgainst(db, gen.rebuilt(fx.base), mix)
	return median(recov), mismatches, err
}

// runUpdate is the untraced run of update.durable.
func runUpdate(cfg *config) (*result, error) {
	fx, setupS, err := setUp(cfg,
		func(dir string) (*updateFixture, error) { return buildUpdateFixture(dir, cfg.updScale) },
		(*updateFixture).close)
	if err != nil {
		return nil, err
	}
	defer func() { fx.close() }()
	mix, shares := readerMix()
	if bad, err := checkAgainst(fx.db, fx.base, mix); err != nil || bad > 0 {
		return nil, fmt.Errorf("gate: %d of %d queries differ from the oracle on the base graph (%v)", bad, len(mix), err)
	}
	gen := newBatchGen(cfg.seed, fx.base)
	srv := fx.db.Serve(pathdb.ServeOptions{})

	var applyMS, lateMS []float64
	reads := newMixSamples(shares)
	var attempted, failed int
	var firstErr error
	tiersMax := 0
	settleHeap()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	var mu sync.Mutex // guards attempted, failed, firstErr across the two loops
	note := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		attempted++
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		for due := start; due.Before(deadline); due = due.Add(writerPeriod) {
			time.Sleep(time.Until(due))
			edges := gen.next()
			// Timed from when the batch was due, so a stall also counts
			// the wait it imposes on the batches behind it.
			lateMS = append(lateMS, float64(time.Since(due).Nanoseconds())/1e6)
			err := fx.db.ApplyBatch(edges)
			d := time.Since(due)
			note(err)
			if err == nil {
				applyMS = append(applyMS, float64(d.Nanoseconds())/1e6)
			}
			if t := fx.db.UpdateStats().Tiers; t > tiersMax {
				tiersMax = t
			}
		}
	}()
	go func() { // reader
		defer wg.Done()
		// Edges are only ever added and the queries are monotone, so an
		// answer smaller than an earlier one of the same query is wrong.
		floor := make([]int, len(mix))
		for i := 0; time.Now().Before(deadline); i++ {
			s := i % len(mix)
			t0 := time.Now()
			n, err := countPairs(context.Background(), srv, mix[s].Text)
			d := time.Since(t0)
			if err == nil && n < floor[s] {
				err = fmt.Errorf("%s shrank from %d to %d pairs", mix[s].Name, floor[s], n)
			}
			note(err)
			if err == nil {
				floor[s] = n
				reads.add(s, d)
			}
		}
	}()
	wg.Wait()
	elapsed := time.Since(start)
	batches := len(applyMS)

	us, ds := fx.db.UpdateStats(), fx.db.DurabilityStats()
	bytes, err := settle(fx, gen)
	if err != nil {
		return nil, err
	}
	recoveryS, mismatches, err := recoverAndCheck(cfg, fx, gen, mix)
	if err != nil {
		return nil, err
	}
	attempted += len(mix)
	failed += mismatches
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "update.durable: first failure:", firstErr)
	}
	edges := fx.db.Graph().NumEdges()

	res := &result{Workload: "update.durable", Clients: 1, Attempted: attempted, Failed: failed, SequenceHash: edgeHash(gen.applied)}
	res.Metrics = []metric{
		{Name: "setup_s", Value: setupS, Unit: "s", N: cfg.setups},
		{Name: "qps", Value: 1000 / reads.meanMS(), Unit: "1/s", N: reads.count()},
		{Name: "p50_ms", Value: reads.quantileMS(0.50), Unit: "ms", N: reads.count()},
		{Name: "p95_ms", Value: reads.quantileMS(0.95), Unit: "ms", N: reads.count()},
		{Name: "recovery_s", Value: recoveryS, Unit: "s", N: cfg.reopens},
		{Name: "index_bytes_per_edge", Value: float64(bytes) / float64(edges), Unit: "B/edge"},
	}
	res.Info = append([]metric{
		{Name: "failed_ratio", Value: float64(failed) / float64(attempted), Unit: "ratio"},
		{Name: "apply_p50_ms", Value: quantile(applyMS, 0.50), Unit: "ms", N: batches},
		{Name: "apply_p95_ms", Value: quantile(applyMS, 0.95), Unit: "ms", N: batches},
		{Name: "window_qps", Value: float64(reads.count()) / seconds(elapsed), Unit: "1/s", N: reads.count()},
		{Name: "batches_per_s", Value: float64(batches) / seconds(elapsed), Unit: "1/s", N: batches},
		{Name: "writer_late_p95_ms", Value: quantile(lateMS, 0.95), Unit: "ms", N: len(lateMS)},
		{Name: "durability.spills", Value: float64(ds.Spills), Unit: "count"},
		{Name: "durability.checkpoints", Value: float64(ds.Checkpoints), Unit: "count"},
		{Name: "durability.compactions", Value: float64(us.Compactions), Unit: "count"},
		{Name: "durability.tiers_max", Value: float64(tiersMax), Unit: "count"},
	}, runtimeMetrics()...)
	return res, nil
}

func edgeHash(edges []graph.LabeledEdge) uint64 {
	var x expect
	for _, e := range edges {
		x.add(e.Src+" "+e.Label, e.Dst)
	}
	return x.Hash
}

// traceUpdate is the traced run of update.durable: one client
// alternates a batch and a read, each through its ladder. The rungs
// beneath the durable DB's public calls run on a shadow engine that is
// fed the same batches — pathdb.DB keeps its engine private — and on a
// scratch log.
func traceUpdate(cfg *config) (*result, error) {
	fx, err := buildUpdateFixture(filepath.Join(cfg.work, "traced"), cfg.updScale)
	if err != nil {
		return nil, err
	}
	defer func() { fx.close() }()
	mix, shares := readerMix()
	gen := newBatchGen(cfg.seed, fx.base)
	srv := fx.db.Serve(pathdb.ServeOptions{})

	shadowGraph, err := graph.LoadEdgeList(fx.graphPath)
	if err != nil {
		return nil, err
	}
	shadow, err := core.NewEngine(shadowGraph, core.Options{K: indexK})
	if err != nil {
		return nil, err
	}
	// Read rungs always run on the shadow's newest snapshot.
	cs := core.NewServer(core.EngineSourceFunc(func() *core.Engine { return shadow }), core.ServeOptions{})
	scratch, _, err := wal.Open(filepath.Join(cfg.work, "scratch.wal"), true)
	if err != nil {
		return nil, err
	}
	defer scratch.Close()

	var batch []graph.LabeledEdge
	var payload []byte
	writes := newLadder([]rung{
		{name: "pathdb.apply", run: func(*op) (map[string]float64, error) {
			return nil, fx.db.ApplyBatch(batch)
		}},
		{name: "wal.encode", parent: "pathdb.apply", run: func(*op) (map[string]float64, error) {
			payload = wal.EncodeBatch(wal.BatchRecord{Epoch: shadow.Epoch() + 1, Edges: batch})
			return nil, nil
		}},
		{name: "core.apply", parent: "pathdb.apply", run: func(*op) (map[string]float64, error) {
			ne, err := shadow.ApplyBatch(batch)
			if err == nil {
				shadow = ne
			}
			return nil, err
		}},
		{name: "wal.append", parent: "pathdb.apply", run: func(*op) (map[string]float64, error) {
			before := scratch.Size()
			_, err := scratch.Append(wal.TypeBatch, payload)
			return map[string]float64{"bytes": float64(scratch.Size() - before)}, err
		}},
	})
	readRungs := []rung{{name: "core.stream_names", run: func(o *op) (map[string]float64, error) {
		_, err := countPairs(context.Background(), srv, o.Query.Text)
		return nil, err
	}}}
	readRungs = append(readRungs, pairRungs("core.stream_names", srv, cs)...)
	// The same leaf runs over the base alone: the difference to the
	// scan over base and tiers is the merge-at-scan cost.
	readRungs = append(readRungs, rung{name: "pathindex.scan.base", run: func(o *op) (map[string]float64, error) {
		prep, err := cs.Prepare(o.Query.Text, strategy)
		if err != nil {
			return nil, err
		}
		base := prep.Engine().Storage()
		if ls, ok := base.(*pathindex.Levels); ok {
			base = ls.Base()
		}
		n, err := drainSegments(base, leafSegments(prep.Plan()))
		return map[string]float64{"entries_read": float64(n)}, err
	}})
	reads := newLadder(readRungs)
	reads.t0 = writes.t0

	readOps := make([]op, len(mix))
	for i, q := range mix {
		readOps[i] = op{ID: i, Stratum: i, Query: q}
	}
	var writeOps []op
	tiersMax := 0
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		batch = gen.next()
		w := op{ID: i, Query: query{Name: fmt.Sprintf("batch-%d", i)}}
		if err := writes.pass(&w); err != nil {
			return nil, err
		}
		writeOps = append(writeOps, w)
		// The shadow gets the maintenance the DB gives itself, untimed:
		// one tier merge per batch and a fold at the compaction ratio.
		if ne, ok, err := shadow.MergeTiersStep(); err == nil && ok {
			shadow = ne
		}
		if ls, ok := shadow.Storage().(*pathindex.Levels); ok && ls.DeltaRatio() >= pathdb.DefaultCompactRatio {
			if shadow, err = shadow.Compact(); err != nil {
				return nil, err
			}
		}
		if t := fx.db.UpdateStats().Tiers; t > tiersMax {
			tiersMax = t
		}
		if err := reads.pass(&readOps[i%len(readOps)]); err != nil {
			return nil, err
		}
	}

	us, ds := fx.db.UpdateStats(), fx.db.DurabilityStats()
	if _, err := settle(fx, gen); err != nil {
		return nil, err
	}
	_, mismatches, err := recoverAndCheck(cfg, fx, gen, mix)
	if err != nil {
		return nil, err
	}

	wf := writes.fold(writeOps, []float64{1})
	rf := reads.fold(readOps, shares)
	layers := layerSet{}
	layers.fromLadder(rf)
	by := map[string]layerTimes{}
	for _, l := range wf {
		by[l.Name] = l
	}
	layers["core.apply_ms"] = by["core.apply"].TotalMS
	layers["wal.append_ms"] = by["wal.append"].TotalMS
	layers["wal.bytes_per_edge"] = by["wal.append"].Counts["bytes"] / batchEdges
	layers["pathdb.apply_self_ms"] = by["pathdb.apply"].SelfMS
	var applyMS []float64
	for _, ds := range writes.ms[0] {
		applyMS = append(applyMS, ds...)
	}
	layers["pathdb.apply_p50_ms"] = quantile(applyMS, 0.50)
	layers["pathdb.apply_p95_ms"] = quantile(applyMS, 0.95)
	// Every log append is one fsync: batches, spills and checkpoints.
	layers["wal.fsyncs"] = float64(ds.NextSeq-1) / float64(len(writeOps))
	layers["durability.spills"] = float64(ds.Spills)
	layers["durability.checkpoints"] = float64(ds.Checkpoints)
	layers["durability.compactions"] = float64(us.Compactions)
	layers["durability.max_compact_step_ms"] = ds.MaxCompactStepMillis
	layers["durability.tiers_max"] = float64(tiersMax)
	layers["plancache.hit_rate"] = cs.Stats().HitRate()
	layers["trace.qps"] = 1000 / rf[0].TotalMS
	for _, m := range runtimeMetrics() {
		layers[m.Name] = m.Value
	}
	// Both ladders numbered their spans from 1; shift the reads' past
	// the writes' so ids stay unique in the file.
	shift := len(writes.spans)
	for i := range reads.spans {
		reads.spans[i].ID += shift
		if reads.spans[i].Parent != 0 {
			reads.spans[i].Parent += shift
		}
	}
	if err := writeTrace(cfg, "update.durable", append(wf, rf...), append(writes.spans, reads.spans...)); err != nil {
		return nil, err
	}
	return &result{Workload: "update.durable", Traced: true, Metrics: layers.metrics(),
		Attempted: len(writeOps) + len(readOps), Failed: mismatches, SequenceHash: edgeHash(gen.applied)}, nil
}
