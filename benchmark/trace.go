package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	pathdb "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

// The traced run replays a workload's distinct operations with one
// client through a ladder of public entry points, from the call a user
// makes down to the storage scan. Each rung is its own call that repeats
// the work of the rungs beneath it, so a rung's self time is its
// duration minus its children's. Spans inside the engine are a later
// issue; until then every span is recorded here, around the call.

// span is one timed call of one rung for one operation.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // 0 for a root
	Op     int                `json:"op"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

// rung is one entry point of the ladder. parent names the rung whose
// call contains this rung's work; a rung without parent is a root. The
// first rung is the operation's end-to-end call.
type rung struct {
	name   string
	parent string
	run    func(o *op) (map[string]float64, error)
}

type ladder struct {
	rungs []rung
	index map[string]int
	t0    time.Time
	spans []span
	// ms[r][op] are rung r's durations for an operation, one per pass;
	// counts[r][op] are the counts of its last pass.
	ms     []map[int][]float64
	counts []map[int]map[string]float64
}

func newLadder(rungs []rung) *ladder {
	l := &ladder{rungs: rungs, index: map[string]int{}, t0: time.Now()}
	for i, r := range rungs {
		l.index[r.name] = i
		l.ms = append(l.ms, map[int][]float64{})
		l.counts = append(l.counts, map[int]map[string]float64{})
	}
	return l
}

// pass runs every rung once for o, top down, recording one span each.
func (l *ladder) pass(o *op) error {
	ids := make([]int, len(l.rungs))
	for i, r := range l.rungs {
		start := time.Since(l.t0)
		counts, err := r.run(o)
		end := time.Since(l.t0)
		if err != nil {
			return fmt.Errorf("trace: %s: op %d (%s): %w", r.name, o.ID, o.Query.Name, err)
		}
		ids[i] = len(l.spans) + 1
		parent := 0
		if r.parent != "" {
			parent = ids[l.index[r.parent]]
		}
		l.spans = append(l.spans, span{ID: ids[i], Parent: parent, Op: o.ID, Name: r.name,
			Start: start.Nanoseconds(), End: end.Nanoseconds(), Counts: counts})
		l.ms[i][o.ID] = append(l.ms[i][o.ID], float64((end-start).Nanoseconds())/1e6)
		l.counts[i][o.ID] = counts
	}
	return nil
}

// layerTimes is the ladder folded to one number per rung: the mix's
// mean of the per-operation median, as a total and as self time.
type layerTimes struct {
	Name    string             `json:"name"`
	Parent  string             `json:"parent,omitempty"`
	TotalMS float64            `json:"total_ms"`
	SelfMS  float64            `json:"self_ms"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// fold computes each operation's per-rung median over the passes, takes
// self times down the tree, and averages over the mix by stratum share.
// Where a child measured longer than its parent — separate calls of the
// same work can — the children are scaled to fit, so self times are
// never negative and always sum to the top span.
func (l *ladder) fold(ops []op, shares []float64) []layerTimes {
	children := make([][]int, len(l.rungs))
	for i, r := range l.rungs {
		if r.parent != "" {
			p := l.index[r.parent]
			children[p] = append(children[p], i)
		}
	}
	nr := len(l.rungs)
	total := make([]*mixSamples, nr)
	self := make([]*mixSamples, nr)
	counts := make([]map[string]*mixSamples, nr)
	for i := range total {
		total[i], self[i] = newMixSamples(shares), newMixSamples(shares)
		counts[i] = map[string]*mixSamples{}
	}
	for oi := range ops {
		o := &ops[oi]
		if len(l.ms[0][o.ID]) == 0 {
			continue // the window closed before this operation's first pass
		}
		t := make([]float64, nr)
		for i := range l.rungs {
			t[i] = median(l.ms[i][o.ID])
		}
		s := make([]float64, nr)
		var fit func(i int)
		fit = func(i int) {
			var sum float64
			for _, c := range children[i] {
				sum += t[c]
			}
			if sum > t[i] && sum > 0 {
				for _, c := range children[i] {
					t[c] *= t[i] / sum
				}
				sum = t[i]
			}
			s[i] = t[i] - sum
			for _, c := range children[i] {
				fit(c)
			}
		}
		for i, r := range l.rungs {
			if r.parent == "" {
				fit(i)
			}
		}
		for i := range l.rungs {
			total[i].ms[o.Stratum] = append(total[i].ms[o.Stratum], t[i])
			self[i].ms[o.Stratum] = append(self[i].ms[o.Stratum], s[i])
			for k, v := range l.counts[i][o.ID] {
				if counts[i][k] == nil {
					counts[i][k] = newMixSamples(shares)
				}
				counts[i][k].ms[o.Stratum] = append(counts[i][k].ms[o.Stratum], v)
			}
		}
	}
	out := make([]layerTimes, nr)
	for i, r := range l.rungs {
		out[i] = layerTimes{Name: r.name, Parent: r.parent, TotalMS: total[i].meanMS(), SelfMS: self[i].meanMS()}
		for k, m := range counts[i] {
			if out[i].Counts == nil {
				out[i].Counts = map[string]float64{}
			}
			out[i].Counts[k] = m.meanMS()
		}
	}
	return out
}

// traceFile is what a traced run writes to out/trace.<workload>.json.
type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Host     hostStamp    `json:"host"`
	Layers   []layerTimes `json:"layers"`
	Spans    []span       `json:"spans"`
}

func writeTrace(cfg *config, workload string, layers []layerTimes, spans []span) error {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: cfg.seed, Host: stampHost(), Layers: layers, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "trace."+workload+".json"), data, 0o644)
}

// layerSet is the per-layer metrics of one traced run by name; metrics
// of layers a workload does not reach stay 0.
type layerSet map[string]float64

// fromLadder fills the metrics that are a rung's total or self time.
func (s layerSet) fromLadder(layers []layerTimes) {
	by := map[string]layerTimes{}
	for _, l := range layers {
		by[l.Name] = l
	}
	s["rpq.parse_us"] = by["rpq.parse"].TotalMS * 1000
	s["rewrite.normalize_us"] = by["rewrite.normalize"].TotalMS * 1000
	s["plan.compile_us"] = by["plan.compile"].TotalMS * 1000
	s["plancache.lookup_us"] = by["plancache.lookup"].TotalMS * 1000
	s["exec.run_ms"] = by["exec.run"].TotalMS
	s["pathindex.scan_ms"] = by["pathindex.scan"].TotalMS
	s["pathindex.srcrange_us"] = by["pathindex.srcrange"].TotalMS * 1000
	s["core.names_ms"] = by["core.stream_names"].SelfMS
	s["httpserve.wire_ms"] = by["httpserve.query"].SelfMS
	if x, ok := by["exec.run"]; ok {
		s["exec.rows_touched"] = x.Counts["rows_touched"]
		s["pathindex.blocks_decoded"] = x.Counts["blocks_decoded"]
		s["pathindex.bytes_decoded"] = x.Counts["bytes_decoded"]
		read := by["pathindex.scan"].Counts["entries_read"]
		if d := x.Counts["result_pairs"] + read; d > 0 {
			s["exec.work_efficiency"] = x.Counts["rows_touched"] / d
		}
	}
	if x, ok := by["exec.run.unsharded"]; ok {
		s["exec.scatter_tax_ms"] = by["exec.run"].TotalMS - x.TotalMS
	}
	if x, ok := by["pathindex.scan.base"]; ok {
		s["pathindex.merge_ms"] = by["pathindex.scan"].TotalMS - x.TotalMS
	}
	if x := by["httpserve.query"]; x.Counts["pairs"] > 0 {
		s["httpserve.bytes_per_pair"] = x.Counts["bytes"] / x.Counts["pairs"]
	}
	if top := layers[0]; top.TotalMS > 0 {
		var selfSum float64
		var walk func(name string)
		walk = func(name string) {
			selfSum += by[name].SelfMS
			for _, l := range layers {
				if l.Parent == name {
					walk(l.Name)
				}
			}
		}
		walk(top.Name)
		s["trace.coverage"] = selfSum / top.TotalMS
	}
}

// metrics returns the declared per-layer metrics in declaration order.
func (s layerSet) metrics() []metric {
	out := make([]metric, len(perLayer))
	for i, d := range perLayer {
		out[i] = metric{Name: d.Name, Value: s[d.Name], Unit: d.Unit}
	}
	return out
}

// leafSegments returns the index paths a plan's leaf scans read, as the
// executor reads them (an inverted scan reads the inverse path's run).
func leafSegments(p *plan.Plan) []pathindex.Path {
	var out []pathindex.Path
	var walk func(n plan.Node)
	walk = func(n plan.Node) {
		switch v := n.(type) {
		case *plan.Scan:
			seg := v.Segment
			if v.Inverted {
				seg = seg.Inverse()
			}
			out = append(out, seg)
		case *plan.Join:
			walk(v.Left)
			walk(v.Right)
		case *plan.Closure:
			if v.Input != nil {
				walk(v.Input)
			}
			for _, b := range v.Body {
				walk(b)
			}
		case *plan.Scatter:
			walk(v.Child)
		}
	}
	for _, d := range p.Disjuncts {
		walk(d)
	}
	return out
}

// pinned runs fn while holding a reader pin on file-backed storage.
func pinned(ix pathindex.Storage, fn func()) error {
	if p, ok := ix.(pathindex.Pinner); ok {
		if err := p.Pin(); err != nil {
			return err
		}
		defer p.Unpin()
	}
	fn()
	return nil
}

// drainSegments reads every leaf run through Storage.Blocks alone and
// returns the entries read.
func drainSegments(ix pathindex.Storage, segs []pathindex.Path) (int, error) {
	n := 0
	err := pinned(ix, func() {
		for _, seg := range segs {
			it := ix.Blocks(seg)
			for b := it.Next(); len(b) > 0; b = it.Next() {
				n += len(b)
			}
		}
	})
	return n, err
}

// frontEndRungs times the query front end on a side engine: parse, and
// compile with normalisation. The parents say where parse and
// normalisation sit on the workload's blocking path; compile is on none
// (plans are cached, and QueryFrom never plans), so it is a root, and
// normalisation hangs beneath it unless the workload normalises itself.
func frontEndRungs(e *core.Engine, parseParent, normalizeParent string) []rung {
	return []rung{
		{name: "rpq.parse", parent: parseParent, run: func(o *op) (map[string]float64, error) {
			_, err := rpq.Parse(o.Query.Text)
			return nil, err
		}},
		{name: "plan.compile", run: func(o *op) (map[string]float64, error) {
			_, err := e.Compile(o.Query.expr, strategy)
			return nil, err
		}},
		{name: "rewrite.normalize", parent: normalizeParent, run: func(o *op) (map[string]float64, error) {
			_, err := rewrite.Normalize(o.Query.expr, rewrite.Options{})
			return nil, err
		}},
	}
}

// execRungs times a prepared plan's execution into a counting sink on a
// side engine, and beneath it the scan of the plan's leaf runs.
func execRungs(cs *core.Server, name, parent, scanName string) []rung {
	prepare := func(o *op) (*core.Prepared, error) { return cs.Prepare(o.Query.Text, strategy) }
	return []rung{
		{name: name, parent: parent, run: func(o *op) (map[string]float64, error) {
			prep, err := prepare(o)
			if err != nil {
				return nil, err
			}
			st, err := prep.StreamContext(context.Background(), func([]pathindex.Pair) error { return nil })
			return map[string]float64{
				"rows_touched":   float64(st.TotalIntermRows),
				"result_pairs":   float64(st.ResultPairs),
				"blocks_decoded": float64(st.BlocksDecoded),
				"bytes_decoded":  float64(st.BytesDecoded),
			}, err
		}},
		{name: scanName, parent: name, run: func(o *op) (map[string]float64, error) {
			prep, err := prepare(o)
			if err != nil {
				return nil, err
			}
			n, err := drainSegments(prep.Engine().Storage(), leafSegments(prep.Plan()))
			return map[string]float64{"entries_read": float64(n)}, err
		}},
	}
}

// pairRungs is the ladder of the pair-returning workloads beneath their
// top rung: the in-process stream with names (a rung of its own when
// the top is the HTTP round trip), the warm plan-cache lookup,
// execution, the leaf scans — and, off the blocking path because plans
// are cached, the front end.
func pairRungs(top string, srv *pathdb.Server, cs *core.Server) []rung {
	var rungs []rung
	if top != "core.stream_names" {
		rungs = append(rungs, rung{name: "core.stream_names", parent: top, run: func(o *op) (map[string]float64, error) {
			n, err := countPairs(context.Background(), srv, o.Query.Text)
			if err == nil && n != o.Want.Count {
				err = fmt.Errorf("%d pairs, oracle %d", n, o.Want.Count)
			}
			return nil, err
		}})
	}
	rungs = append(rungs, rung{name: "plancache.lookup", parent: "core.stream_names", run: func(o *op) (map[string]float64, error) {
		_, err := cs.Prepare(o.Query.Text, strategy)
		return nil, err
	}})
	rungs = append(rungs, execRungs(cs, "exec.run", "core.stream_names", "pathindex.scan")...)
	return append(rungs, frontEndRungs(cs.Engine(), "", "plan.compile")...)
}

// lookupRungs is the ladder of lookup.from beneath QueryFromContext:
// parse and the engine's single-source evaluation, and beneath that
// normalisation and the first-hop SrcRange probes. QueryFrom never
// plans, so plan.compile is timed off the path.
func lookupRungs(top string, e *core.Engine, ops []op) ([]rung, error) {
	g := e.Graph()
	hops := map[string][]pathindex.Path{}
	for i := range ops {
		q := ops[i].Query
		if _, ok := hops[q.Text]; ok {
			continue
		}
		norm, err := rewrite.Normalize(q.expr, rewrite.Options{})
		if err != nil {
			return nil, err
		}
		hops[q.Text] = firstHops(g, norm, e.K())
	}
	rungs := []rung{
		{name: "exec.run", parent: top, run: func(o *op) (map[string]float64, error) {
			src, _ := g.LookupNode(o.Source)
			ts, err := e.EvalFromContext(context.Background(), o.Query.expr, src)
			return map[string]float64{"result_pairs": float64(len(ts))}, err
		}},
		{name: "pathindex.srcrange", parent: "exec.run", run: func(o *op) (map[string]float64, error) {
			src, _ := g.LookupNode(o.Source)
			n := 0
			err := pinned(e.Storage(), func() {
				for _, seg := range hops[o.Query.Text] {
					n += len(e.Storage().SrcRange(seg, src))
				}
			})
			return map[string]float64{"entries_read": float64(n)}, err
		}},
	}
	// On this ladder normalisation runs inside the evaluation.
	return append(rungs, frontEndRungs(e, top, "exec.run")...), nil
}

// firstHops resolves the leading index segment of every disjunct of a
// normal form: the runs a single-source evaluation probes first.
func firstHops(g *graph.Graph, norm rewrite.Normal, k int) []pathindex.Path {
	var out []pathindex.Path
	add := func(steps rewrite.Path) {
		if len(steps) > k {
			steps = steps[:k]
		}
		if p, ok := pathindex.Resolve(g, steps); ok && len(p) > 0 {
			out = append(out, p)
		}
	}
	for _, p := range norm.Paths {
		add(p)
	}
	for _, s := range norm.Closures {
		if len(s.Elems) > 0 && !s.Elems[0].IsStar() {
			add(s.Elems[0].Seg)
		}
	}
	return out
}

// traceRead is the traced run of a read workload.
func traceRead(cfg *config, spec readSpec) (*result, error) {
	fx, err := buildFixture(filepath.Join(cfg.work, "traced"), cfg.scale, spec.shards)
	if err != nil {
		return nil, err
	}
	defer fx.close()
	load, err := spec.open(cfg, fx)
	if err != nil {
		return nil, err
	}
	defer load.close()
	e, closer, err := fx.sideEngine()
	if err != nil {
		return nil, err
	}
	defer closer.Close()
	cs := e.Serve(core.ServeOptions{})

	layers := layerSet{}
	// The top rung is the workload's own timed operation, issued exactly
	// as the untraced run issues it.
	rungs := []rung{{name: load.top, run: func(o *op) (map[string]float64, error) {
		n, size, err := load.call(0, o)
		if err == nil && n != o.Want.Count {
			err = fmt.Errorf("answer of size %d, oracle %d", n, o.Want.Count)
		}
		return map[string]float64{"bytes": float64(size), "pairs": float64(n)}, err
	}}}
	if load.top == "pathdb.query_from" {
		lower, err := lookupRungs(load.top, e, load.ops)
		if err != nil {
			return nil, err
		}
		rungs = append(rungs, lower...)
	} else {
		rungs = append(rungs, pairRungs(load.top, fx.db.Serve(pathdb.ServeOptions{}), cs)...)
	}
	if spec.shards > 1 {
		// The scatter tax is the same plan's execution on the unsharded
		// index, subtracted: a second fixture, off the blocking path.
		flat, err := buildFixture(filepath.Join(cfg.work, "traced-flat"), cfg.scale, 1)
		if err != nil {
			return nil, err
		}
		defer flat.close()
		fe, fcloser, err := flat.sideEngine()
		if err != nil {
			return nil, err
		}
		defer fcloser.Close()
		rungs = append(rungs, execRungs(fe.Serve(core.ServeOptions{}), "exec.run.unsharded", "", "pathindex.scan.unsharded")...)
		st := fx.db.ShardStats()
		var sum, max float64
		for _, n := range st.EntriesPerShard {
			sum += float64(n)
			if float64(n) > max {
				max = float64(n)
			}
		}
		if sum > 0 {
			layers["pathindex.shard_skew"] = max / (sum / float64(len(st.EntriesPerShard)))
		}
	}

	lad := newLadder(rungs)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	attempted := 0
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for i := range load.ops {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			if err := lad.pass(&load.ops[i]); err != nil {
				return nil, err
			}
			attempted++
		}
	}
	folded := lad.fold(load.ops, load.shares)
	layers.fromLadder(folded)
	layers["plancache.hit_rate"] = cs.Stats().HitRate()
	layers["trace.qps"] = 1000 / folded[0].TotalMS
	for _, m := range runtimeMetrics() {
		layers[m.Name] = m.Value
	}
	if err := writeTrace(cfg, spec.name, folded, lad.spans); err != nil {
		return nil, err
	}
	return &result{Workload: spec.name, Traced: true, Metrics: layers.metrics(), Attempted: attempted,
		Dropped: load.dropped, SequenceHash: load.sequenceHash()}, nil
}
