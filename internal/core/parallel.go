package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/exec"
	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

// ExecuteParallel runs the prepared plan with the disjuncts evaluated
// concurrently by up to `workers` goroutines. Each worker drains its
// operator tree one batch at a time and streams whole batches to the
// merger, which deduplicates batch-wise — pairs never cross the channel
// individually. Results equal Execute's (up to order); the index and
// histogram are immutable after construction, so concurrent scans are
// safe. Statistics cover the merged run but omit per-operator rows.
func (p *Prepared) ExecuteParallel(workers int) (*Result, error) {
	return p.ExecuteParallelContext(context.Background(), workers)
}

// ExecuteParallelContext is ExecuteParallel under a cancellation scope:
// every worker's operator tree checks ctx at batch boundaries, so once
// ctx is done all workers wind down within about one batch each and the
// merged partial result is discarded in favor of ctx's error.
func (p *Prepared) ExecuteParallelContext(ctx context.Context, workers int) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers < 2 || len(p.plan.Disjuncts) < 2 {
		// Over sharded storage a single disjunct still fans out where
		// its runs are co-partitioned: each merge join of two scans sits
		// under a Scatter, whose Gather runs one goroutine per shard. The
		// rest of the tree runs once, over the shards' concatenated runs.
		return p.ExecuteContext(ctx)
	}
	unpin, err := p.engine.pin()
	if err != nil {
		return nil, err
	}
	defer unpin()
	buildOpts := exec.BuildOptions{
		PerJoinDedup: !p.engine.opts.NoIntermediateDedup,
		Ctx:          ctx,
	}

	type chunk struct {
		batch []pathindex.Pair
		err   error
	}
	jobs := make(chan plan.Node)
	results := make(chan chunk, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]pathindex.Pair, exec.DefaultBatchSize)
			for d := range jobs {
				sub := &plan.Plan{
					Strategy:  p.plan.Strategy,
					K:         p.plan.K,
					Disjuncts: []plan.Node{d},
				}
				op, err := exec.Build(sub, p.engine.ix, buildOpts)
				if err != nil {
					results <- chunk{err: fmt.Errorf("core: building operators: %w", err)}
					continue
				}
				for {
					n := op.NextBatch(buf)
					if n == 0 {
						break
					}
					// The buffer is reused for the next batch, so the
					// outgoing batch is copied once here; the merger
					// consumes it without further copying.
					batch := make([]pathindex.Pair, n)
					copy(batch, buf[:n])
					results <- chunk{batch: batch}
				}
				// A cancelled tree can stop mid-stream with per-shard
				// gather goroutines still running; stop and await them
				// before the shared pin is released.
				exec.Quiesce(op)
			}
		}()
	}
	go func() {
		for _, d := range p.plan.Disjuncts {
			jobs <- d
		}
		close(jobs)
		wg.Wait()
		close(results)
	}()

	seen := map[pathindex.Pair]struct{}{}
	var out []pathindex.Pair
	batches := 0
	if p.plan.HasEpsilon {
		for n := 0; n < p.engine.g.NumNodes(); n++ {
			pr := pathindex.Pair{Src: graph.NodeID(n), Dst: graph.NodeID(n)}
			seen[pr] = struct{}{}
			out = append(out, pr)
		}
	}
	var firstErr error
	for c := range results {
		if c.err != nil {
			if firstErr == nil {
				firstErr = c.err
			}
			continue
		}
		batches++
		for _, pr := range c.batch {
			if _, dup := seen[pr]; !dup {
				seen[pr] = struct{}{}
				out = append(out, pr)
			}
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	st := p.stats
	st.ResultPairs = len(out)
	st.TotalBatches = batches // merged top-level batches, not per-operator (see Stats)
	return &Result{Pairs: out, Stats: st}, nil
}
