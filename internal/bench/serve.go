package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/plan"
	"repro/internal/workload"
)

// ServeConfig parameterizes the multi-client throughput experiment.
type ServeConfig struct {
	Config
	// Clients lists the client-goroutine counts to measure, e.g.
	// [1, 2, 4, 8]. Empty uses DefaultServeClients.
	Clients []int
	// Duration is the measured window per client count (after one
	// warmup pass over the mix). 0 uses 2s.
	Duration time.Duration
	// ZipfExponent skews the query popularity distribution (> 1;
	// 0 uses workload.DefaultZipfExponent).
	ZipfExponent float64
	// RandomQueries appends this many random queries to the Advogato
	// eight, so the Zipf distribution has a long tail. 0 uses 24.
	RandomQueries int
	// MaxQueryTime drops queries whose single-shot evaluation exceeds
	// this budget from the mix — a throughput harness needs bounded
	// per-request cost (a serving system would time such queries out),
	// and one multi-second outlier otherwise drowns every percentile.
	// Dropped queries are recorded in the report. 0 uses 100ms.
	MaxQueryTime time.Duration
}

// DefaultServeClients is measured when ServeConfig.Clients is empty.
var DefaultServeClients = []int{1, 2, 4, 8}

// ServePoint is one measured configuration of the throughput harness.
type ServePoint struct {
	Clients int `json:"clients"`
	// Ops counts successful requests; failures are tallied in Errors
	// and excluded from QPS and the latency percentiles.
	Ops       int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	Seconds   float64 `json:"seconds"`
	QPS       float64 `json:"qps"`
	P50Millis float64 `json:"p50_ms"`
	P95Millis float64 `json:"p95_ms"`
	P99Millis float64 `json:"p99_ms"`
	// Speedup is QPS relative to the single-client point.
	Speedup float64 `json:"speedup_vs_1_client"`
}

// ServeReport is the full result of the throughput experiment,
// serialized to BENCH_serve.json by cmd/bench.
type ServeReport struct {
	Nodes        int     `json:"nodes"`
	Edges        int     `json:"edges"`
	K            int     `json:"k"`
	CPUs         int     `json:"cpus"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	Queries      int     `json:"queries"`
	ZipfExponent float64 `json:"zipf_exponent"`
	Strategy     string  `json:"strategy"`
	// DroppedUnservable lists mix candidates the engine rejected
	// outright (expansion limits); DroppedOverBudget lists candidates
	// that compiled but exceeded the per-query time budget.
	DroppedUnservable []string     `json:"dropped_unservable,omitempty"`
	DroppedOverBudget []string     `json:"dropped_over_budget,omitempty"`
	Points            []ServePoint `json:"points"`
	// HTTP holds the same traffic measured through the network front end
	// (internal/httpserve): a live listener, POST /query per request, the
	// full NDJSON stream read back. The gap to the in-process points is
	// the cost of serving over HTTP.
	HTTP []HTTPPoint `json:"http,omitempty"`
	// MaxSpeedup is the best multi-client QPS over the single-client
	// QPS. Concurrency can only raise aggregate QPS when
	// GoMaxProcs > 1; on a single-CPU host this hovers near 1.0.
	MaxSpeedup float64  `json:"max_speedup_vs_1_client"`
	Notes      []string `json:"notes"`
}

func (c ServeConfig) normalizeServe() ServeConfig {
	c.Config = c.Config.normalize()
	if len(c.Clients) == 0 {
		c.Clients = DefaultServeClients
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.ZipfExponent <= 1 {
		c.ZipfExponent = workload.DefaultZipfExponent
	}
	if c.RandomQueries == 0 {
		c.RandomQueries = 24
	}
	// The speedup baseline is the 1-client point; make sure it is
	// measured even when the caller asks only for larger counts.
	has1 := false
	for _, n := range c.Clients {
		if n == 1 {
			has1 = true
			break
		}
	}
	if !has1 {
		c.Clients = append([]int{1}, c.Clients...)
	}
	if c.MaxQueryTime <= 0 {
		c.MaxQueryTime = 100 * time.Millisecond
	}
	return c
}

// serveQueries assembles the workload mix: the Advogato ten plus a
// random tail, keeping only queries the engine can actually serve (a
// random query can exceed expansion limits) within the per-query time
// budget. The dropped names are returned by cause so the report can
// record them.
func serveQueries(c ServeConfig, e *core.Engine) (kept []workload.Query, unservable, overBudget []string) {
	qs := workload.Advogato()
	qs = append(qs, workload.Random(c.RandomQueries, datasets.AdvogatoLabels, c.Seed+101)...)
	for _, q := range qs {
		// Closure queries on large graphs have quadratic answers; even
		// the budget probe below would materialize them once, so they
		// are excluded up front (the star experiment covers them).
		if skipClosure(e.Graph(), q) {
			overBudget = append(overBudget, q.Name)
			continue
		}
		prep, err := e.Compile(q.Expr, plan.MinSupport)
		if err != nil {
			unservable = append(unservable, q.Name)
			continue
		}
		t0 := time.Now()
		if _, err := prep.Execute(); err != nil {
			unservable = append(unservable, q.Name)
			continue
		}
		if time.Since(t0) > c.MaxQueryTime {
			overBudget = append(overBudget, q.Name)
			continue
		}
		kept = append(kept, q)
	}
	return kept, unservable, overBudget
}

// measureServe drives `clients` goroutines of Zipf-skewed traffic
// against a fresh server for the configured duration and reports the
// aggregate throughput and latency percentiles.
func measureServe(c ServeConfig, e *core.Engine, qs []workload.Query, clients int) (ServePoint, error) {
	srv := e.Serve(core.ServeOptions{})

	// Touch every query once before the window.
	for _, q := range qs {
		if _, err := srv.Query(q.Text, plan.MinSupport); err != nil {
			return ServePoint{}, fmt.Errorf("bench: warmup %s: %w", q.Name, err)
		}
	}

	type clientResult struct {
		lats []time.Duration
		ops  int64
		errs int64
	}
	results := make([]clientResult, clients)
	deadline := time.Now().Add(c.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			z := workload.NewZipf(qs, c.ZipfExponent, c.Seed+int64(w)*7919)
			res := &results[w]
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				q := z.Next()
				if _, err := srv.Query(q.Text, plan.MinSupport); err != nil {
					// Failed requests are tallied separately and kept
					// out of Ops/latencies so they cannot inflate QPS.
					res.errs++
					continue
				}
				res.lats = append(res.lats, time.Since(t0))
				res.ops++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	pt := ServePoint{Clients: clients, Seconds: elapsed.Seconds()}
	for _, r := range results {
		pt.Ops += r.ops
		pt.Errors += r.errs
		lats = append(lats, r.lats...)
	}
	slices.Sort(lats)
	pt.QPS = float64(pt.Ops) / elapsed.Seconds()
	pt.P50Millis = millisAt(lats, 0.50)
	pt.P95Millis = millisAt(lats, 0.95)
	pt.P99Millis = millisAt(lats, 0.99)
	return pt, nil
}

func millisAt(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i].Microseconds()) / 1000.0
}

// Serve runs the concurrent-serving throughput experiment: Zipf-skewed
// traffic at each configured client count, every request parsing and
// planning its own query.
func Serve(c ServeConfig) (*ServeReport, *Table, error) {
	c = c.normalizeServe()
	g := c.advogato()
	k := c.Ks[len(c.Ks)-1]
	e, err := c.engine(g, k, nil)
	if err != nil {
		return nil, nil, err
	}
	qs, unservable, overBudget := serveQueries(c, e)
	if len(qs) == 0 {
		return nil, nil, fmt.Errorf("bench: no servable queries in the mix")
	}
	rep := &ServeReport{
		Nodes:             g.NumNodes(),
		Edges:             g.NumEdges(),
		K:                 k,
		CPUs:              runtime.NumCPU(),
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		Queries:           len(qs),
		ZipfExponent:      c.ZipfExponent,
		Strategy:          plan.MinSupport.String(),
		DroppedUnservable: unservable,
		DroppedOverBudget: overBudget,
	}

	for _, n := range c.Clients {
		pt, err := measureServe(c, e, qs, n)
		if err != nil {
			return nil, nil, err
		}
		rep.Points = append(rep.Points, pt)
	}
	// The speedup baseline is the 1-client point (normalizeServe
	// guarantees it was measured), not whichever count came first.
	var base float64
	for _, pt := range rep.Points {
		if pt.Clients == 1 {
			base = pt.QPS
			break
		}
	}
	if base > 0 {
		for i := range rep.Points {
			pt := &rep.Points[i]
			pt.Speedup = pt.QPS / base
			if pt.Speedup > rep.MaxSpeedup {
				rep.MaxSpeedup = pt.Speedup
			}
		}
	}
	rep.HTTP, err = serveHTTPPoints(c, g, k, qs)
	if err != nil {
		return nil, nil, err
	}
	rep.Notes = append(rep.Notes,
		"every request parses and plans its own query; one pass over the mix runs before each measured window",
		"aggregate QPS scales with clients only when gomaxprocs > 1",
		"http points measure the same Zipf mix through POST /query on a live listener, NDJSON streams read to completion",
	)
	if len(unservable) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%d mix candidates dropped as unservable (expansion limits; see dropped_unservable)", len(unservable)))
	}
	if len(overBudget) > 0 {
		rep.Notes = append(rep.Notes, fmt.Sprintf(
			"%d mix candidates dropped for exceeding the %s per-query budget (see dropped_over_budget)",
			len(overBudget), c.MaxQueryTime))
	}
	return rep, serveTable(rep), nil
}

func serveTable(rep *ServeReport) *Table {
	t := &Table{
		Title: fmt.Sprintf("Serve: Zipf(s=%.2f) over %d queries, %d nodes / %d edges (k=%d, %d CPU)",
			rep.ZipfExponent, rep.Queries, rep.Nodes, rep.Edges, rep.K, rep.GoMaxProcs),
		Header: []string{"clients", "ops", "errors", "QPS", "p50 ms", "p95 ms", "p99 ms", "speedup"},
	}
	for _, p := range rep.Points {
		speedup := "-"
		if p.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", p.Speedup)
		}
		t.AddRow(
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%d", p.Ops),
			fmt.Sprintf("%d", p.Errors),
			fmt.Sprintf("%.0f", p.QPS),
			fmt.Sprintf("%.3f", p.P50Millis),
			fmt.Sprintf("%.3f", p.P95Millis),
			fmt.Sprintf("%.3f", p.P99Millis),
			speedup,
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("best concurrency scaling: %.2fx", rep.MaxSpeedup))
	return t
}

// WriteServeReport serializes the report as indented JSON to path.
func WriteServeReport(rep *ServeReport, path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
