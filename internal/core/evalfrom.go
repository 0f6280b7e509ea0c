package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

// EvalFrom computes the single-source answer {t | (src, t) ∈ R(G)}
// without materializing the full pair relation: each disjunct is
// evaluated by sideways information passing over the index's
// ⟨path, source⟩ prefix lookups (the I_{G,k}(⟨p, a⟩) operation of the
// paper's Example 3.1), expanding a frontier of nodes one length-≤k
// segment at a time. Closure disjuncts expand their frontier by
// breadth-first fixpoint over the closure body (no pair relation is ever
// built), so star queries from a single source cost
// O(reachable · body expansion).
//
// Targets are returned sorted ascending.
func (e *Engine) EvalFrom(expr rpq.Expr, src graph.NodeID) ([]graph.NodeID, error) {
	return e.EvalFromContext(context.Background(), expr, src)
}

// EvalFromContext is EvalFrom under a cancellation scope: the frontier
// expansion checks ctx between segments (and periodically within large
// frontiers), and the closure fixpoint checks it every BFS round, so a
// runaway single-source closure stops promptly once ctx is done and
// EvalFromContext returns ctx's error.
func (e *Engine) EvalFromContext(ctx context.Context, expr rpq.Expr, src graph.NodeID) ([]graph.NodeID, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if int(src) >= e.g.NumNodes() {
		return nil, fmt.Errorf("core: source node %d out of range", src)
	}
	unpin, err := e.pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	norm, err := rewrite.Normalize(expr, e.rewriteOptions())
	if err != nil {
		return nil, fmt.Errorf("core: rewriting query: %w", err)
	}
	result := map[graph.NodeID]bool{}
	if norm.HasEpsilon {
		result[src] = true
	}
	for _, p := range norm.Paths {
		rp, ok := pathindex.Resolve(e.g, p)
		if !ok {
			continue
		}
		targets, err := e.expandPathFromSet(ctx, []graph.NodeID{src}, rp)
		if err != nil {
			return nil, err
		}
		for _, t := range targets {
			result[t] = true
		}
	}
	for _, s := range norm.Closures {
		rs, ok := e.resolveSeq(s)
		if !ok {
			continue
		}
		if len(rs.Elems) == 0 {
			result[src] = true
			continue
		}
		targets, err := e.evalSeqFromSet(ctx, []graph.NodeID{src}, rs)
		if err != nil {
			return nil, err
		}
		for _, t := range targets {
			result[t] = true
		}
	}
	out := make([]graph.NodeID, 0, len(result))
	for t := range result {
		out = append(out, t)
	}
	slices.Sort(out)
	return out, nil
}

// expandPathFromSet expands a frontier of nodes through the disjunct's
// greedy length-k segments, deduplicating the frontier between segments.
// It returns the distinct targets (unordered). ctx is checked between
// segments and every 256 frontier nodes within one.
func (e *Engine) expandPathFromSet(ctx context.Context, frontier []graph.NodeID, d pathindex.Path) ([]graph.NodeID, error) {
	cur := frontier
	for start := 0; start < len(d); start += e.opts.K {
		end := start + e.opts.K
		if end > len(d) {
			end = len(d)
		}
		seg := d[start:end]
		next := map[graph.NodeID]bool{}
		for i, n := range cur {
			if i&255 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			// SrcRange hands back the ⟨seg, n⟩ run of the index as one
			// zero-copy slice; walking it directly avoids per-pair
			// iterator calls.
			for _, pr := range e.ix.SrcRange(seg, n) {
				next[pr.Dst()] = true
			}
		}
		if len(next) == 0 {
			return nil, nil
		}
		cur = make([]graph.NodeID, 0, len(next))
		for t := range next {
			cur = append(cur, t)
		}
	}
	return cur, nil
}

// evalSeqFromSet expands a frontier through a resolved star-factored
// sequence: fixed segments via the index's prefix lookups, closure
// factors via closeFromSet.
func (e *Engine) evalSeqFromSet(ctx context.Context, frontier []graph.NodeID, s plan.Seq) ([]graph.NodeID, error) {
	cur := frontier
	for _, el := range s.Elems {
		var err error
		if !el.IsStar() {
			cur, err = e.expandPathFromSet(ctx, cur, el.Seg)
		} else {
			cur, err = e.closeFromSet(ctx, cur, el.Star)
		}
		if err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			return nil, nil
		}
	}
	return cur, nil
}

// closeFromSet computes the closure of a node set under a union of body
// sequences by breadth-first fixpoint: the work list holds nodes whose
// body expansions have not been explored yet; newly reached nodes join
// both the visited set and the work list, and the loop terminates when
// an iteration discovers nothing (at most |V| discoveries in total).
// ctx is checked once per BFS round on top of the per-segment checks
// inside the body expansions.
func (e *Engine) closeFromSet(ctx context.Context, nodes []graph.NodeID, body []plan.Seq) ([]graph.NodeID, error) {
	visited := make(map[graph.NodeID]bool, len(nodes))
	work := make([]graph.NodeID, 0, len(nodes))
	for _, n := range nodes {
		if !visited[n] {
			visited[n] = true
			work = append(work, n)
		}
	}
	for len(work) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var next []graph.NodeID
		for _, bs := range body {
			targets, err := e.evalSeqFromSet(ctx, work, bs)
			if err != nil {
				return nil, err
			}
			for _, t := range targets {
				if !visited[t] {
					visited[t] = true
					next = append(next, t)
				}
			}
		}
		work = next
	}
	out := make([]graph.NodeID, 0, len(visited))
	for t := range visited {
		out = append(out, t)
	}
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
