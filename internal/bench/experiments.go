package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/datalog"
	"repro/internal/datasets"
	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/reachability"
	"repro/internal/rpq"
	"repro/internal/workload"
)

// Config parameterizes all experiment runners.
type Config struct {
	// Scale shrinks the Advogato stand-in (1.0 = the published 6,541
	// nodes / 51,127 edges).
	Scale float64
	// Seed drives all generators.
	Seed int64
	// Runs is the sample count per measurement (median reported).
	Runs int
	// Ks lists the index locality parameters for Figure 2 (the paper
	// uses 1, 2, 3).
	Ks []int
	// HistogramBuckets for the engines (0 = exact statistics).
	HistogramBuckets int
}

// normalize fills defaults (Scale 0 means 1.0) and rejects a scale
// outside (0,1], which the scaled generators cannot honour.
func (c Config) normalize() (Config, error) {
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if !(c.Scale > 0 && c.Scale <= 1) {
		return c, fmt.Errorf("scale %v out of range (0,1]", c.Scale)
	}
	if c.Runs < 1 {
		c.Runs = 1
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{1, 2, 3}
	}
	return c, nil
}

func (c Config) advogato() *graph.Graph {
	return datasets.AdvogatoScaled(c.Seed, c.Scale)
}

func (c Config) engine(g *graph.Graph, k int, mutate func(*core.Options)) (*core.Engine, error) {
	opts := core.Options{K: k, HistogramBuckets: c.HistogramBuckets}
	if mutate != nil {
		mutate(&opts)
	}
	return core.NewEngine(g, opts)
}

// maxClosureNodes bounds the graphs on which the workload's
// Kleene-closure queries (Q9, Q10) run inside the general experiments:
// closure answers are quadratic in SCC size, so on the full-scale
// Advogato stand-in a single (master|journeyer)* evaluation would
// materialize tens of millions of pairs. The closure.star workload of
// benchmark/ covers larger instances.
const maxClosureNodes = 700

// skipClosure reports whether q is a closure-class query too large to
// evaluate on g inside a general experiment.
func skipClosure(g *graph.Graph, q workload.Query) bool {
	return rpq.HasUnbounded(q.Expr) && g.NumNodes() > maxClosureNodes
}

// closureSkipNote is appended to tables that dropped closure rows.
func closureSkipNote(skipped []string) string {
	return fmt.Sprintf("closure queries %s skipped at this scale (quadratic answers); benchmark/'s closure.star runs them",
		strings.Join(skipped, ", "))
}

// evalTime measures the median full evaluation time (compile + execute)
// of query under strategy.
func (c Config) evalTime(e *core.Engine, q workload.Query, s plan.Strategy) (time.Duration, int, error) {
	var pairs int
	d, err := timeIt(c.Runs, func() error {
		res, err := e.Eval(q.Expr, s)
		if err != nil {
			return err
		}
		pairs = len(res.Pairs)
		return nil
	})
	return d, pairs, err
}

// Fig2 regenerates Figure 2: per k ∈ Ks, the run times (ms) of the
// Advogato queries under the four strategies. The naive strategy
// ignores k by construction, mirroring the paper ("k fixed at 1").
func Fig2(c Config) ([]*Table, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	g := c.advogato()
	qs := workload.Advogato()
	var tables []*Table
	for _, k := range c.Ks {
		e, err := c.engine(g, k, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: k=%d: %w", k, err)
		}
		t := &Table{
			Title: fmt.Sprintf("Figure 2 (k=%d): Advogato query execution times (ms), %d nodes / %d edges",
				k, g.NumNodes(), g.NumEdges()),
			Header: []string{"query", "naive", "semiNaive", "minSupport", "minJoin", "result pairs"},
		}
		var skipped []string
		for _, q := range qs {
			if skipClosure(g, q) {
				skipped = append(skipped, q.Name)
				continue
			}
			row := []string{q.Name}
			var pairs int
			for _, s := range plan.Strategies() {
				d, p, err := c.evalTime(e, q, s)
				if err != nil {
					return nil, fmt.Errorf("bench: %s under %v at k=%d: %w", q.Name, s, k, err)
				}
				row = append(row, ms(d))
				pairs = p
			}
			row = append(row, fmt.Sprintf("%d", pairs))
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes,
			"expected shape (paper): naive slowest; minSupport/minJoin fastest and similar; larger k helps")
		if len(skipped) > 0 {
			t.Notes = append(t.Notes, closureSkipNote(skipped))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// DatalogComparison regenerates the Section 6 claim: path-index
// evaluation (minSupport, largest k) versus Datalog-based evaluation on
// the Advogato workload, with per-query and average speedups.
func DatalogComparison(c Config) (*Table, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	g := c.advogato()
	k := c.Ks[len(c.Ks)-1]
	e, err := c.engine(g, k, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Section 6: path index (minSupport, k=%d) vs Datalog on Advogato (ms)", k),
		Header: []string{"query", "pathIndex", "datalog(semi-naive)", "datalog(SQL-view)", "speedup(semi)", "speedup(view)", "pairs agree"},
	}
	totalSemi, totalView := 0.0, 0.0
	counted := 0
	var skipped []string
	for _, q := range workload.Advogato() {
		if skipClosure(g, q) {
			skipped = append(skipped, q.Name)
			continue
		}
		dIdx, idxPairs, err := c.evalTime(e, q, plan.MinSupport)
		if err != nil {
			return nil, err
		}
		prog, err := datalog.Translate(q.Expr, g)
		if err != nil {
			return nil, err
		}
		var semiPairs, viewPairs int
		dSemi, err := timeIt(c.Runs, func() error {
			pairs, _, err := prog.Eval(g)
			if err != nil {
				return err
			}
			semiPairs = len(pairs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		dView, err := timeIt(c.Runs, func() error {
			pairs, _, err := prog.EvalNaive(g)
			if err != nil {
				return err
			}
			viewPairs = len(pairs)
			return nil
		})
		if err != nil {
			return nil, err
		}
		rSemi := float64(dSemi) / float64(dIdx)
		rView := float64(dView) / float64(dIdx)
		totalSemi += rSemi
		totalView += rView
		counted++
		agree := "yes"
		if semiPairs != idxPairs || viewPairs != idxPairs {
			agree = fmt.Sprintf("NO (%d/%d/%d)", idxPairs, semiPairs, viewPairs)
		}
		t.AddRow(q.Name, ms(dIdx), ms(dSemi), ms(dView),
			fmt.Sprintf("%.0fx", rSemi), fmt.Sprintf("%.0fx", rView), agree)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("average speedup: %.0fx vs semi-naive Datalog, %.0fx vs SQL-view-style naive iteration",
			totalSemi/float64(counted), totalView/float64(counted)),
		"the paper reports ~1200x against a client-server relational stack; both baselines here are in-process and hand-indexed, so these ratios are a lower bound on that gap")
	if len(skipped) > 0 {
		t.Notes = append(t.Notes, closureSkipNote(skipped))
	}
	return t, nil
}

// IndexCost regenerates the Ext-1 experiment: index size and build time
// as k grows, on every dataset family.
func IndexCost(c Config) (*Table, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	type ds struct {
		name string
		g    *graph.Graph
	}
	scaledNodes := func(n int) int {
		s := int(float64(n) * c.Scale)
		if s < 10 {
			s = 10
		}
		return s
	}
	families := []ds{
		{"advogato", c.advogato()},
		{"erdos-renyi", datasets.ErdosRenyi(datasets.Config{
			Nodes: scaledNodes(datasets.AdvogatoNodes), Edges: int(float64(datasets.AdvogatoEdges) * c.Scale),
			Labels: datasets.AdvogatoLabels, Seed: c.Seed,
		})},
		{"grid", datasets.Grid(scaledNodes(80), 80, "right", "down")},
		{"chain", datasets.Chain(scaledNodes(5000), "next")},
	}
	t := &Table{
		Title:  "Ext-1: k-path index cost per dataset and k",
		Header: []string{"dataset", "nodes", "edges", "k", "entries", "label paths", "|paths_k|", "build ms"},
	}
	for _, f := range families {
		for _, k := range c.Ks {
			ix, err := pathindex.Build(f.g, k, pathindex.BuildOptions{})
			if err != nil {
				return nil, fmt.Errorf("bench: %s k=%d: %w", f.name, k, err)
			}
			st := ix.Stats()
			t.AddRow(f.name,
				fmt.Sprintf("%d", f.g.NumNodes()), fmt.Sprintf("%d", f.g.NumEdges()),
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%d", st.Entries), fmt.Sprintf("%d", st.LabelPaths),
				fmt.Sprintf("%d", st.PathsKCount), ms(st.Duration))
		}
	}
	t.Notes = append(t.Notes, "entries grow geometrically with k on hub-heavy graphs; linearly on bounded-degree graphs")
	return t, nil
}

// Datasets regenerates the Ext-2 experiment: the Figure-2 method
// comparison on the other synthetic dataset families (the thesis
// evaluates four datasets). Each family uses the Advogato vocabulary so
// the workload carries over.
func Datasets(c Config) ([]*Table, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	k := c.Ks[len(c.Ks)-1]
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"erdos-renyi", datasets.ErdosRenyi(datasets.Config{
			Nodes: int(float64(datasets.AdvogatoNodes) * c.Scale), Edges: int(float64(datasets.AdvogatoEdges) * c.Scale),
			Labels: datasets.AdvogatoLabels, Seed: c.Seed,
		})},
		{"pref-attach-uniform", datasets.PreferentialAttachment(datasets.Config{
			Nodes: int(float64(datasets.AdvogatoNodes) * c.Scale), Edges: int(float64(datasets.AdvogatoEdges) * c.Scale),
			Labels: datasets.AdvogatoLabels, Seed: c.Seed + 1,
		})},
	}
	var tables []*Table
	for _, f := range families {
		e, err := c.engine(f.g, k, nil)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", f.name, err)
		}
		t := &Table{
			Title: fmt.Sprintf("Ext-2 (%s, k=%d): query execution times (ms), %d nodes / %d edges",
				f.name, k, f.g.NumNodes(), f.g.NumEdges()),
			Header: []string{"query", "naive", "semiNaive", "minSupport", "minJoin", "result pairs"},
		}
		var skipped []string
		for _, q := range workload.Advogato() {
			if skipClosure(f.g, q) {
				skipped = append(skipped, q.Name)
				continue
			}
			row := []string{q.Name}
			var pairs int
			for _, s := range plan.Strategies() {
				d, p, err := c.evalTime(e, q, s)
				if err != nil {
					return nil, err
				}
				row = append(row, ms(d))
				pairs = p
			}
			row = append(row, fmt.Sprintf("%d", pairs))
			t.AddRow(row...)
		}
		if len(skipped) > 0 {
			t.Notes = append(t.Notes, closureSkipNote(skipped))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Ablation regenerates the Ext-3 experiments: histogram resolution,
// group-join availability (hash-only), and per-join deduplication, all
// under minSupport on the Advogato workload. Only hash and probe joins
// carry a per-join Distinct — a group join dedups by source itself — so
// the per-join dedup ablation runs over hash-only plans, next to the
// hash-only row it is measured against.
func Ablation(c Config) ([]*Table, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	g := c.advogato()
	k := c.Ks[len(c.Ks)-1]

	variants := []struct {
		name   string
		mutate func(*core.Options)
	}{
		{"exact-hist", func(o *core.Options) { o.HistogramBuckets = 0 }},
		{"buckets-64", func(o *core.Options) { o.HistogramBuckets = 64 }},
		{"buckets-8", func(o *core.Options) { o.HistogramBuckets = 8 }},
		{"buckets-1", func(o *core.Options) { o.HistogramBuckets = 1 }},
		{"hash-only", func(o *core.Options) { o.HashOnly = true; o.HistogramBuckets = 0 }},
		{"hash-only, no-interm-dedup", func(o *core.Options) {
			o.HashOnly, o.NoIntermediateDedup, o.HistogramBuckets = true, true, 0
		}},
	}
	var qs []workload.Query
	var skipped []string
	for _, q := range workload.Advogato() {
		if skipClosure(g, q) {
			skipped = append(skipped, q.Name)
			continue
		}
		qs = append(qs, q)
	}
	names := make([]string, len(qs))
	for i, q := range qs {
		names[i] = q.Name
	}
	t := &Table{
		Title:  fmt.Sprintf("Ext-3: minSupport ablations on Advogato (k=%d), per-query times (ms)", k),
		Header: append([]string{"variant"}, names...),
	}
	for _, v := range variants {
		e, err := c.engine(g, k, v.mutate)
		if err != nil {
			return nil, fmt.Errorf("bench: variant %s: %w", v.name, err)
		}
		row := []string{v.name}
		for _, q := range qs {
			d, _, err := c.evalTime(e, q, plan.MinSupport)
			if err != nil {
				return nil, err
			}
			row = append(row, ms(d))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"buckets-1 degrades join ordering to uniform estimates; hash-only replaces the group joins, and their dedup by source, with hash joins",
		"hash-only, no-interm-dedup drops the Distinct above every hash join; compare it with hash-only, since group joins have no per-join dedup to drop")
	if len(skipped) > 0 {
		t.Notes = append(t.Notes, closureSkipNote(skipped))
	}
	return []*Table{t}, nil
}

// Reach regenerates the Ext-4 experiment: transitive-closure-shaped
// queries under the reachability index (approach 3) versus the other
// engines, demonstrating both its speed on its niche and its
// restriction.
func Reach(c Config) (*Table, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	// A small instance: closure answers are quadratic in component size.
	small := datasets.AdvogatoScaled(c.Seed, min(c.Scale, 0.05))
	t := &Table{
		Title: fmt.Sprintf("Ext-4: (l|...)* evaluation, %d nodes / %d edges (ms; n/a = approach cannot run it)",
			small.NumNodes(), small.NumEdges()),
		Header: []string{"query", "reachIndex", "automaton", "datalog", "pathIndex(k=2)"},
	}
	e, err := c.engine(small, 2, nil)
	if err != nil {
		return nil, err
	}
	for _, qtext := range []string{"master*", "(master|journeyer)*", "master/journeyer"} {
		expr := rpq.MustParse(qtext)
		row := []string{qtext}

		if d, err := timeIt(c.Runs, func() error {
			_, err := reachability.Eval(expr, small)
			return err
		}); err != nil {
			row = append(row, "n/a")
		} else {
			row = append(row, ms(d))
		}

		d, err := timeIt(c.Runs, func() error {
			_, err := automaton.Eval(expr, small)
			return err
		})
		if err != nil {
			return nil, err
		}
		row = append(row, ms(d))

		d, err = timeIt(c.Runs, func() error {
			_, _, err := datalog.Eval(expr, small)
			return err
		})
		if err != nil {
			return nil, err
		}
		row = append(row, ms(d))

		if d, err := timeIt(c.Runs, func() error {
			_, err := e.Eval(expr, plan.MinSupport)
			return err
		}); err != nil {
			if strings.Contains(err.Error(), "limit") {
				row = append(row, "n/a (expansion limit)")
			} else {
				return nil, err
			}
		} else {
			row = append(row, ms(d))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"the reachability index answers only (l|...)* shapes (third row: n/a); the path index answers arbitrary RPQs")
	return t, nil
}

// ExecProfile records the vectorized executor's runtime profile: per
// Advogato query under minSupport at the largest k, the result size, the
// summed intermediate rows and batches over all operators, the mean
// rows moved per batch, and — since the engine here serves from
// block-compressed v4 storage — the per-query decompression traffic
// (blocks and bytes decoded, read from core.Stats). Batch=1 numbers
// equal what the pre-vectorization tuple-at-a-time executor paid one
// interface call apiece for, so this table is the before/after ledger
// of the batching refactor (the exec micro-benchmarks, go test -bench
// ./internal/exec, hold the isolated operator throughputs).
func ExecProfile(c Config) (*Table, error) {
	c, err := c.normalize()
	if err != nil {
		return nil, err
	}
	g := c.advogato()
	k := c.Ks[len(c.Ks)-1]
	// Serve from compressed v4 storage so the decode counters are live:
	// the profile then also shows how much of the index each query
	// actually decompresses.
	dir, err := os.MkdirTemp("", "pathdb-execprofile-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ix, err := pathindex.Build(g, k, pathindex.BuildOptions{})
	if err != nil {
		return nil, err
	}
	ixPath := filepath.Join(dir, "ix.pix")
	if err := ix.Save(ixPath); err != nil {
		return nil, err
	}
	cix, err := pathindex.OpenCompressed(ixPath, g)
	if err != nil {
		return nil, err
	}
	defer cix.Close()
	e, err := core.NewEngineFromStorage(cix, core.Options{K: k, HistogramBuckets: c.HistogramBuckets})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Exec profile (minSupport, k=%d, v4 storage): batched operator traffic, %d nodes / %d edges",
			k, g.NumNodes(), g.NumEdges()),
		Header: []string{"query", "exec ms", "result pairs", "interm rows", "batches", "rows/batch", "blocks dec", "KB dec"},
	}
	var skipped []string
	for _, q := range workload.Advogato() {
		if skipClosure(g, q) {
			skipped = append(skipped, q.Name)
			continue
		}
		var res *core.Result
		d, err := timeIt(c.Runs, func() error {
			r, err := e.Eval(q.Expr, plan.MinSupport)
			if err != nil {
				return err
			}
			res = r
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", q.Name, err)
		}
		rowsPerBatch := 0.0
		if res.Stats.TotalBatches > 0 {
			rowsPerBatch = float64(res.Stats.TotalIntermRows) / float64(res.Stats.TotalBatches)
		}
		t.AddRow(q.Name, ms(d),
			fmt.Sprintf("%d", res.Stats.ResultPairs),
			fmt.Sprintf("%d", res.Stats.TotalIntermRows),
			fmt.Sprintf("%d", res.Stats.TotalBatches),
			fmt.Sprintf("%.0f", rowsPerBatch),
			fmt.Sprintf("%d", res.Stats.BlocksDecoded),
			fmt.Sprintf("%.1f", float64(res.Stats.BytesDecoded)/1024.0))
	}
	t.Notes = append(t.Notes,
		"rows/batch is the mean batch fill across the operator tree; the tuple-at-a-time executor moved 1 row per call",
		fmt.Sprintf("operators move up to %d pairs per NextBatch call", exec.DefaultBatchSize),
		"blocks/KB dec are the v4 block decompressions the query's scans triggered (one decode per touched 4096-pair block)")
	if len(skipped) > 0 {
		t.Notes = append(t.Notes, closureSkipNote(skipped))
	}
	return t, nil
}
