package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"

	"repro/internal/core"
	"repro/internal/pathindex"
	"repro/internal/plan"
)

// The shard experiment measures the sharded scatter-gather stack:
// per-shard build cost and balance of the hash partitioning, query
// latency through the scatter/gather operators (Execute and
// ExecuteParallel) against the unsharded engine, and — the acceptance
// bit — answer identity with the unsharded oracle at every shard count.
// On a single-CPU host (gomaxprocs = 1) the per-shard goroutines
// interleave rather than overlap, so the latency columns measure the
// coordination overhead of sharding, not its speedup; the cpus and
// gomaxprocs fields record which regime produced the numbers.

// ShardPoint is one measured shard count.
type ShardPoint struct {
	Shards int `json:"shards"`
	// BuildMillis is the sharded engine build (per-shard index builds run
	// concurrently).
	BuildMillis float64 `json:"build_ms"`
	// EntriesPerShard is each shard's entry count; ImbalancePct is
	// (max/mean - 1)·100, the hash partitioner's balance error.
	EntriesPerShard []int   `json:"entries_per_shard,omitempty"`
	ImbalancePct    float64 `json:"imbalance_pct"`
	// QueryMillis sums the Q1–Q8 workload latency (median of runs)
	// through Execute; ParallelMillis through ExecuteParallel(4).
	QueryMillis    float64 `json:"query_ms"`
	ParallelMillis float64 `json:"parallel_ms"`
	// OracleMatch reports that every workload query under every strategy
	// answered identically to the unsharded oracle.
	OracleMatch bool `json:"oracle_match"`
}

// ShardReport is serialized to BENCH_shard.json by cmd/bench.
type ShardReport struct {
	GoVersion  string       `json:"go_version"`
	CPUs       int          `json:"cpus"`
	GoMaxProcs int          `json:"gomaxprocs"`
	Runs       int          `json:"runs"`
	K          int          `json:"k"`
	Scale      float64      `json:"scale"`
	Nodes      int          `json:"nodes"`
	Edges      int          `json:"edges"`
	Points     []ShardPoint `json:"points"`
	Note       string       `json:"note"`
}

// RunShard measures the scatter-gather stack on the scaled Advogato
// stand-in at k = max(cfg.Ks) and writes the JSON report to out (when
// non-empty). The shards=1 row is the unsharded baseline.
func RunShard(cfg Config, out string) (*ShardReport, *Table, error) {
	cfg = cfg.normalize()
	k := cfg.Ks[len(cfg.Ks)-1]
	g := cfg.advogato()
	queries := updateQueries()
	report := &ShardReport{
		GoVersion:  runtime.Version(),
		CPUs:       runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Runs:       cfg.Runs,
		K:          k,
		Scale:      cfg.Scale,
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Note: "shards=1 is the unsharded baseline; query_ms sums the Q1-Q8 workload (median of runs) through " +
			"Execute, parallel_ms through ExecuteParallel(4); oracle_match compares every query under every " +
			"strategy to the unsharded answers; with gomaxprocs=1 the per-shard goroutines interleave, so " +
			"sharded latency reflects coordination overhead, not parallel speedup",
	}

	// The unsharded oracle doubles as the shards=1 measurement base.
	var oracle *core.Engine
	baseBuild, err := timeIt(cfg.Runs, func() error {
		e, err := core.NewEngine(g, core.Options{K: k, HistogramBuckets: cfg.HistogramBuckets})
		oracle = e
		return err
	})
	if err != nil {
		return nil, nil, err
	}

	tab := &Table{
		Title: fmt.Sprintf("Sharded scatter-gather (k=%d, %d nodes / %d edges, gomaxprocs=%d, ms)",
			k, g.NumNodes(), g.NumEdges(), runtime.GOMAXPROCS(0)),
		Header: []string{"shards", "build", "imbalance", "q1-q8 exec", "q1-q8 parallel", "oracle"},
	}
	for _, n := range []int{1, 2, 4, 8} {
		pt := ShardPoint{Shards: n, OracleMatch: true}
		e := oracle
		if n == 1 {
			pt.BuildMillis = ms2(baseBuild)
		} else {
			var se *core.Engine
			d, err := timeIt(cfg.Runs, func() error {
				b, err := core.NewEngine(g, core.Options{K: k, HistogramBuckets: cfg.HistogramBuckets, Shards: n})
				se = b
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			pt.BuildMillis = ms2(d)
			e = se
			ss := se.Storage().(*pathindex.ShardedStorage)
			maxE, sumE := 0, 0
			for i := 0; i < ss.NumShards(); i++ {
				c := ss.Shard(i).NumEntries()
				pt.EntriesPerShard = append(pt.EntriesPerShard, c)
				sumE += c
				if c > maxE {
					maxE = c
				}
			}
			if sumE > 0 {
				pt.ImbalancePct = (float64(maxE)/(float64(sumE)/float64(n)) - 1) * 100
			}
		}

		if pt.QueryMillis, err = workloadLatency(cfg.Runs, e, queries); err != nil {
			return nil, nil, err
		}
		parD, err := timeIt(cfg.Runs, func() error {
			for _, q := range queries {
				prep, err := e.Compile(q, plan.MinSupport)
				if err != nil {
					return err
				}
				if _, err := prep.ExecuteParallel(4); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		pt.ParallelMillis = ms2(parD)

		// The acceptance differential: every query, every strategy.
		for _, q := range queries {
			for _, s := range plan.Strategies() {
				want, err := oracle.Eval(q, s)
				if err != nil {
					return nil, nil, err
				}
				got, err := e.Eval(q, s)
				if err != nil {
					return nil, nil, err
				}
				if !slices.Equal(sortedResult(got), sortedResult(want)) {
					pt.OracleMatch = false
				}
			}
		}
		report.Points = append(report.Points, pt)
		tab.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%.2f", pt.BuildMillis),
			fmt.Sprintf("%.1f%%", pt.ImbalancePct),
			fmt.Sprintf("%.2f", pt.QueryMillis), fmt.Sprintf("%.2f", pt.ParallelMillis),
			fmt.Sprintf("%v", pt.OracleMatch))
	}
	tab.Notes = append(tab.Notes,
		"merge joins run per shard on co-partitioned runs (both sides keyed by the join node); every other operator runs once over the concatenated shard runs",
		"the gather fans per-shard join streams in unordered; the result union deduplicates")

	if out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return nil, nil, err
		}
	}
	return report, tab, nil
}
