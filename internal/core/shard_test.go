package core

import (
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/rpq"
	"repro/internal/workload"
)

// shardCounts are the differential fan-outs: 1 (the degenerate shard),
// powers of two, and a prime that never divides the node count evenly.
var shardCounts = []int{1, 2, 4, 7}

// shardsOf returns the engine storage's shard count, 0 for unsharded
// storage.
func shardsOf(e *Engine) int {
	if sh, ok := pathindex.AsSharded(e.Storage()); ok {
		return sh.Partitioner().NumShards()
	}
	return 0
}

// newShardedDiskEngine round-trips e's sharded storage through the
// on-disk layout (one v3 file per shard + manifest) and wraps the
// reopened block-compressed shards in a fresh engine, so the
// differential runs cover file-backed shard bases, not just heap ones.
func newShardedDiskEngine(t *testing.T, e *Engine) *Engine {
	t.Helper()
	ss, ok := e.Storage().(*pathindex.ShardedStorage)
	if !ok {
		t.Fatalf("engine storage is %T, want *pathindex.ShardedStorage", e.Storage())
	}
	dir := filepath.Join(t.TempDir(), "shards.pixd")
	if err := ss.SaveSharded(dir); err != nil {
		t.Fatal(err)
	}
	got, err := pathindex.OpenSharded(dir, e.Graph())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { got.Close() })
	de, err := NewEngineFromStorage(got, Options{K: got.K()})
	if err != nil {
		t.Fatal(err)
	}
	return de
}

// TestShardedEngineDifferential is the property-based differential test
// of the sharded stack: fixed and random RPQs (closures included) must
// produce identical sorted result sets on an unsharded oracle and on
// sharded engines at every shard count — over heap-built shards and over
// the reopened on-disk (block-compressed) shard layout — under all four
// strategies, through Execute, ExecuteParallel, and EvalFrom.
func TestShardedEngineDifferential(t *testing.T) {
	labels := []string{"a", "b", "c"}
	g := randomGraph(rand.New(rand.NewSource(41)), 30, 90, labels)
	oracle := newTestEngine(t, g, 2)

	type sut struct {
		name string
		e    *Engine
	}
	var suts []sut
	for _, n := range shardCounts {
		e, err := NewEngine(g, Options{K: 2, Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		// Shards=1 builds the plain single index.
		if got := shardsOf(e); n > 1 && got != n || n == 1 && got != 0 {
			t.Fatalf("Shards=%d built %d-shard storage", n, got)
		}
		suts = append(suts, sut{name: "heap", e: e})
		if n > 1 {
			suts = append(suts, sut{name: "disk", e: newShardedDiskEngine(t, e)})
		}
	}

	fixed := []string{"a", "a/b", "a^-/b", "a/(b|c)", "a*", "(a|b)*", "a/b*", "(a/b)+"}
	r := rand.New(rand.NewSource(42))
	genOpts := rpq.DefaultGenOptions(labels)
	queries := slices.Clone(fixed)
	for i := 0; i < 15; i++ {
		queries = append(queries, rpq.Generate(r, genOpts).String())
	}

	for _, text := range queries {
		expr, err := rpq.Parse(text)
		if err != nil {
			t.Fatalf("parse %q: %v", text, err)
		}
		src := graph.NodeID(r.Intn(g.NumNodes()))
		for _, strat := range plan.Strategies() {
			want, err := oracle.Eval(expr, strat)
			if err != nil {
				var le *rewrite.LimitError
				if errors.As(err, &le) {
					break // too large to expand; skip this expression
				}
				t.Fatalf("oracle eval of %q: %v", text, err)
			}
			wantSorted := sortedPairs(want.Pairs)
			wantFrom, err := oracle.EvalFrom(expr, src)
			if err != nil {
				t.Fatalf("oracle EvalFrom(%q, %d): %v", text, src, err)
			}
			for _, s := range suts {
				got, err := s.e.Eval(expr, strat)
				if err != nil {
					t.Fatalf("%s shards=%d eval of %q: %v", s.name, shardsOf(s.e), text, err)
				}
				if !slices.Equal(sortedPairs(got.Pairs), wantSorted) {
					t.Fatalf("%s shards=%d disagrees with oracle on %q under %v", s.name, shardsOf(s.e), text, strat)
				}
				prep, err := s.e.Compile(expr, strat)
				if err != nil {
					t.Fatalf("%s compile %q: %v", s.name, text, err)
				}
				par, err := prep.ExecuteParallel(4)
				if err != nil {
					t.Fatalf("%s ExecuteParallel of %q: %v", s.name, text, err)
				}
				if !slices.Equal(sortedPairs(par.Pairs), wantSorted) {
					t.Fatalf("%s shards=%d ExecuteParallel disagrees on %q under %v", s.name, shardsOf(s.e), text, strat)
				}
				gotFrom, err := s.e.EvalFrom(expr, src)
				if err != nil {
					t.Fatalf("%s EvalFrom(%q, %d): %v", s.name, text, src, err)
				}
				if !slices.Equal(gotFrom, wantFrom) {
					t.Fatalf("%s shards=%d EvalFrom disagrees on %q from %d", s.name, shardsOf(s.e), text, src)
				}
			}
		}
	}
}

// TestShardedApplyBatchCompact: live updates against a sharded engine
// route the delta to the owning shards under one epoch, answer like a
// from-scratch oracle over the extended graph, and compact back to clean
// per-shard indexes.
func TestShardedApplyBatchCompact(t *testing.T) {
	labels := []string{"a", "b"}
	r := rand.New(rand.NewSource(51))
	base := randomGraph(r, 25, 60, labels)
	var batch []graph.LabeledEdge
	for i := 0; i < 40; i++ {
		batch = append(batch, graph.LabeledEdge{
			Src:   base.NodeName(graph.NodeID(r.Intn(25))),
			Label: labels[r.Intn(2)],
			Dst:   base.NodeName(graph.NodeID(r.Intn(25))),
		})
	}
	queries := []string{"a", "a/b", "a^-/b", "a*", "(a|b)*"}

	for _, n := range shardCounts[1:] { // sharded engines only
		e, err := NewEngine(base, Options{K: 2, Shards: n})
		if err != nil {
			t.Fatal(err)
		}
		e2, err := e.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("shards=%d ApplyBatch: %v", n, err)
		}
		if e2.Epoch() != e.Epoch()+1 {
			t.Fatalf("shards=%d: epoch %d after ApplyBatch, want %d", n, e2.Epoch(), e.Epoch()+1)
		}
		if shardsOf(e2) != n {
			t.Fatalf("shards=%d: successor has %d shards", n, shardsOf(e2))
		}
		oracle := newTestEngine(t, e2.Graph(), 2)
		check := func(stage string, se *Engine) {
			t.Helper()
			for _, text := range queries {
				for _, strat := range plan.Strategies() {
					want, err := oracle.EvalQuery(text, strat)
					if err != nil {
						t.Fatal(err)
					}
					got, err := se.EvalQuery(text, strat)
					if err != nil {
						t.Fatalf("shards=%d %s eval %q: %v", n, stage, text, err)
					}
					if !slices.Equal(sortedPairs(got.Pairs), sortedPairs(want.Pairs)) {
						t.Fatalf("shards=%d %s disagrees with rebuilt oracle on %q under %v", n, stage, text, strat)
					}
				}
			}
		}
		check("after ApplyBatch", e2)
		e3, err := e2.Compact()
		if err != nil {
			t.Fatalf("shards=%d Compact: %v", n, err)
		}
		if e3 == e2 {
			t.Fatalf("shards=%d: Compact returned the receiver despite delta entries", n)
		}
		// The update is one global tier over the sharded base, and the fold
		// hands a clean sharded base of the same width back.
		if ls, ok := e2.Storage().(*pathindex.Levels); !ok || len(ls.Tiers()) != 1 {
			t.Fatalf("shards=%d: updated storage is %T, want a one-tier *pathindex.Levels", n, e2.Storage())
		}
		if ss, ok := e3.Storage().(*pathindex.ShardedStorage); !ok || ss.NumShards() != n {
			t.Fatalf("shards=%d: compacted storage is %T, want a %d-shard *pathindex.ShardedStorage", n, e3.Storage(), n)
		}
		check("after Compact", e3)
		// A second Compact with nothing accumulated is the identity.
		e4, err := e3.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if e4 != e3 {
			t.Fatalf("shards=%d: Compact of a clean engine returned a successor", n)
		}
	}
}

// TestShardedExplainMatchesUnsharded: the plan does not depend on the
// storage layout. For Q1–Q10 of the Advogato workload under every
// strategy, a 4-shard engine's EXPLAIN equals an unsharded engine's, and
// the sharded engine answers like it, through Execute and through
// ExecuteParallel.
func TestShardedExplainMatchesUnsharded(t *testing.T) {
	g := datasets.AdvogatoScaled(3, 0.01)
	flat := newTestEngine(t, g, 3)
	sharded, err := NewEngine(g, Options{K: 3, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := shardsOf(sharded); got != 4 {
		t.Fatalf("Shards=4 built %d-shard storage", got)
	}
	for _, q := range workload.Advogato() {
		for _, strat := range plan.Strategies() {
			want, err := flat.Compile(q.Expr, strat)
			if err != nil {
				t.Fatal(err)
			}
			prep, err := sharded.Compile(q.Expr, strat)
			if err != nil {
				t.Fatal(err)
			}
			if got := prep.Explain(); got != want.Explain() {
				t.Fatalf("%s %v: sharded EXPLAIN\n%s\nunsharded EXPLAIN\n%s", q.Name, strat, got, want.Explain())
			}
			wantRes, err := want.Execute()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 4} {
				res, err := prep.ExecuteParallel(workers)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(sortedPairs(res.Pairs), sortedPairs(wantRes.Pairs)) {
					t.Fatalf("%s %v workers=%d: sharded answer differs from the unsharded one", q.Name, strat, workers)
				}
			}
		}
	}
}
