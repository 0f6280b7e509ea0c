package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	pathdb "repro"
	"repro/internal/automaton"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/workload"
)

const (
	// fixtureSeed generates the graph and the candidate queries. It is a
	// constant, not the run's -seed: redrawing the Advogato stand-in moves
	// the cost of Q1–Q8 by ±10 % (measured over seeds 1–8 at scale 0.25),
	// more than any bound the benchmark sets, so a graph that followed
	// -seed would drown every comparison between seeds. -seed drives
	// what a client can vary: request order, lookup sources, update edges.
	fixtureSeed = 1

	indexK   = 3
	strategy = pathdb.StrategyMinSupport

	// Host-independent caps on the generated queries of the serving mix.
	mixRandomQueries = 24
	mixCandidates    = 160
	maxPlanCard      = 60000
	maxTotalSteps    = 24

	// opDeadline is the generous per-operation deadline of the
	// correctness gate: a survivor of the caps that still runs this long
	// fails the set-up loudly instead of skewing the mix.
	opDeadline = 20 * time.Second
)

// fixture is one built, saved and reopened index: the file-backed
// storage the CLI serves from by default.
type fixture struct {
	dir       string
	graphPath string
	indexPath string // a v3 file, or a sharded directory
	db        *pathdb.DB
}

// generateGraph writes the Advogato stand-in to an edge-list file and
// loads it back, as gengraph followed by `rpq build` would: an index is
// only valid beside the graph file whose load order gave the nodes
// their identifiers (and a file holds no isolated nodes).
func generateGraph(path string, scale float64) (*graph.Graph, error) {
	if err := datasets.AdvogatoScaled(fixtureSeed, scale).SaveEdgeList(path); err != nil {
		return nil, fmt.Errorf("saving graph: %w", err)
	}
	g, err := graph.LoadEdgeList(path)
	if err != nil {
		return nil, fmt.Errorf("loading graph: %w", err)
	}
	return g, nil
}

// buildFixture generates the graph, builds the k-path index, saves both
// and reopens them with pathdb.Open — the set-up every read workload
// pays before its first operation. shards > 1 saves a sharded directory.
func buildFixture(dir string, scale float64, shards int) (*fixture, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{dir: dir, graphPath: filepath.Join(dir, "graph.txt")}
	g, err := generateGraph(fx.graphPath, scale)
	if err != nil {
		return nil, err
	}
	built, err := pathdb.Build(g, pathdb.Options{K: indexK, Shards: shards})
	if err != nil {
		return nil, fmt.Errorf("building index: %w", err)
	}
	if shards > 1 {
		fx.indexPath = filepath.Join(dir, "index.shards")
		err = built.SaveShardedIndex(fx.indexPath)
	} else {
		fx.indexPath = filepath.Join(dir, "index.pix")
		err = built.SaveIndexV3(fx.indexPath)
	}
	if err != nil {
		return nil, fmt.Errorf("saving index: %w", err)
	}
	if err := built.Close(); err != nil {
		return nil, err
	}
	if fx.db, err = pathdb.Open(fx.graphPath, fx.indexPath); err != nil {
		return nil, fmt.Errorf("reopening index: %w", err)
	}
	return fx, nil
}

func (fx *fixture) close() error { return fx.db.Close() }

// indexBytes returns the on-disk size of the saved index.
func (fx *fixture) indexBytes() (int64, error) { return treeBytes(fx.indexPath) }

// treeBytes sums the sizes of the regular files under path.
func treeBytes(path string) (int64, error) {
	var total int64
	err := filepath.Walk(path, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// sideEngine opens a second engine over the fixture's files. pathdb.DB
// keeps its engine private, so the layers beneath the public API —
// planner estimates for the mix filter, and the compile, exec and scan
// rungs of the traced ladder — are reached through this twin, which
// reads the same bytes through the same storage type.
func (fx *fixture) sideEngine() (*core.Engine, io.Closer, error) {
	g, err := graph.LoadEdgeList(fx.graphPath)
	if err != nil {
		return nil, nil, err
	}
	var ix pathindex.Storage
	if pathindex.IsShardedPath(fx.indexPath) {
		ix, err = pathindex.OpenSharded(fx.indexPath, g)
	} else {
		ix, err = pathindex.OpenStorage(fx.indexPath, g)
	}
	if err != nil {
		return nil, nil, err
	}
	e, err := core.NewEngineFromStorage(ix, core.Options{K: ix.K()})
	if err != nil {
		ix.(io.Closer).Close()
		return nil, nil, err
	}
	return e, ix.(io.Closer), nil
}

// query is one distinct query text of a workload's mix.
type query struct {
	Name string
	Text string
	expr rpq.Expr
}

func namedQuery(name, text string) query {
	return query{Name: name, Text: text, expr: rpq.MustParse(text)}
}

// advogato returns the named Advogato workload queries, in order.
func advogato(names ...string) []query {
	var out []query
	for _, n := range names {
		q, err := workload.Lookup(n)
		if err != nil {
			panic(err)
		}
		out = append(out, query{Name: q.Name, Text: q.Text, expr: q.Expr})
	}
	return out
}

// serveMix returns the serving mix in popularity order — Q1–Q8, then
// the generated queries that pass the host-independent caps — and the
// names of the candidates it dropped, each with the reason.
func serveMix(e *core.Engine) (mix []query, dropped []string) {
	mix = advogato("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8")
	seen := map[string]bool{}
	for _, q := range mix {
		seen[q.Text] = true
	}
	survivors := 0
	for _, c := range workload.Random(mixCandidates, datasets.AdvogatoLabels, fixtureSeed) {
		if survivors == mixRandomQueries {
			break
		}
		reason := ""
		norm, err := rewrite.Normalize(c.Expr, rewrite.Options{})
		var limit *rewrite.LimitError
		switch {
		case errors.As(err, &limit):
			reason = "rewrite limit: " + limit.What
		case err != nil:
			reason = "rewrite: " + err.Error()
		case norm.TotalSteps() > maxTotalSteps:
			reason = fmt.Sprintf("total steps %d > %d", norm.TotalSteps(), maxTotalSteps)
		case seen[c.Text]:
			reason = "duplicate text"
		default:
			prep, err := e.Compile(c.Expr, strategy)
			if err != nil {
				reason = "compile: " + err.Error()
			} else if card := prep.Plan().Card(); card > maxPlanCard {
				reason = fmt.Sprintf("plan card %.0f > %d", card, maxPlanCard)
			}
		}
		if reason != "" {
			dropped = append(dropped, c.Name+" ("+reason+")")
			continue
		}
		seen[c.Text] = true
		survivors++
		mix = append(mix, query{Name: c.Name, Text: c.Text, expr: c.Expr})
	}
	return mix, dropped
}

// zipfShares returns the Zipf(s) probabilities of n ranks.
func zipfShares(n int, s float64) []float64 {
	shares := make([]float64, n)
	var sum float64
	for i := range shares {
		shares[i] = 1 / math.Pow(float64(i+1), s)
		sum += shares[i]
	}
	for i := range shares {
		shares[i] /= sum
	}
	return shares
}

// expect is what the automaton baseline says an operation returns: the
// size of the answer and an order-independent hash of its node names.
type expect struct {
	Count int
	Hash  uint64
}

// add folds one answer pair (or, for a lookup, source and target) into
// the expectation. Summation makes the hash independent of order.
func (x *expect) add(a, b string) {
	// FNV-1a over a, a separator and b, inline: this runs once per answer
	// pair of every gated operation.
	h := uint64(14695981039346656037)
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * 1099511628211
	}
	h *= 1099511628211 // the separator byte 0
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	x.Count++
	x.Hash += h
}

// pairOracle evaluates e over g with the automaton baseline.
func pairOracle(g *graph.Graph, e rpq.Expr) (expect, error) {
	pairs, err := automaton.Eval(e, g)
	if err != nil {
		return expect{}, err
	}
	var x expect
	for _, p := range pairs {
		x.add(g.NodeName(p.Src), g.NodeName(p.Dst))
	}
	return x, nil
}

// op is one distinct operation of a workload: a query, for lookups a
// source node, and the answer the oracle expects.
type op struct {
	ID      int
	Stratum int
	Query   query
	Source  string `json:",omitempty"`
	Want    expect
}

// streamPairs runs a query through the serving layer into a sink that
// keeps only the count and hash of the answer.
func streamPairs(ctx context.Context, srv *pathdb.Server, text string) (expect, pathdb.Stats, error) {
	var got expect
	st, err := srv.StreamWith(ctx, text, strategy, func(_ []pathdb.Pair, names [][2]string) error {
		for _, nm := range names {
			got.add(nm[0], nm[1])
		}
		return nil
	})
	return got, st, err
}

// countPairs runs a query through the serving layer into a counting
// sink — the in-process timed operation.
func countPairs(ctx context.Context, srv *pathdb.Server, text string) (int, error) {
	n := 0
	_, err := srv.StreamWith(ctx, text, strategy, func(pairs []pathdb.Pair, _ [][2]string) error {
		n += len(pairs)
		return nil
	})
	return n, err
}

// gatePairs is the correctness gate of the pair-returning workloads:
// every distinct operation, run once through the serving layer, must
// return the oracle's count and hash within the deadline. It also warms
// the plan cache and the reachability cache before anything is timed.
func gatePairs(srv *pathdb.Server, ops []op) error {
	for i := range ops {
		o := &ops[i]
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		got, _, err := streamPairs(ctx, srv, o.Query.Text)
		cancel()
		if err != nil {
			return fmt.Errorf("gate: %s %q: %w", o.Query.Name, o.Query.Text, err)
		}
		if got != o.Want {
			return fmt.Errorf("gate: %s %q: engine answers %d pairs (hash %x), oracle %d (hash %x)",
				o.Query.Name, o.Query.Text, got.Count, got.Hash, o.Want.Count, o.Want.Hash)
		}
	}
	return nil
}

// pairOps turns a mix into operations with oracle answers over g.
func pairOps(g *graph.Graph, mix []query) ([]op, error) {
	ops := make([]op, len(mix))
	for i, q := range mix {
		want, err := pairOracle(g, q.expr)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", q.Name, err)
		}
		ops[i] = op{ID: i, Stratum: i, Query: q, Want: want}
	}
	return ops, nil
}
