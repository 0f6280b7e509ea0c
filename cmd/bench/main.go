// Command bench regenerates the experiment tables of the reproduction:
// Figure 2 (query times per strategy and k), the Section 6 Datalog
// comparison, and the Ext-1..Ext-4 extension experiments.
//
// Usage:
//
//	bench [-experiment all|fig2|datalog|indexcost|datasets|ablation|reach|execprofile|serve|update|shard]
//	      [-scale 1.0] [-seed 1] [-runs 3] [-buckets 64]
//	      [-clients 8] [-servedur 2s] [-serveout BENCH_serve.json]
//	      [-updateout BENCH_update.json] [-shardout BENCH_shard.json]
//
// Full scale (-scale 1.0) matches the published Advogato dimensions and
// takes a few minutes, dominated by the k=3 index build; -scale 0.25
// runs in seconds.
//
// The serve experiment (also selected implicitly by passing any of
// -clients, -servedur, or -serveout with -experiment all) drives N
// concurrent clients of Zipf-skewed traffic through the serving layer,
// measuring client counts 1, 2, 4, ... up to -clients, and writes the
// JSON report to -serveout.
//
// The update experiment (also selected implicitly by passing -updateout
// with -experiment all) measures live graph updates — ApplyBatch's
// delta-overlay maintenance versus a from-scratch rebuild, query
// latency over the overlay, and compaction cost — for several batch
// sizes, and writes the JSON report to -updateout.
//
// The shard experiment (also selected implicitly by passing -shardout
// with -experiment all) measures the sharded scatter-gather stack —
// per-shard build cost, hash-partition balance, query latency through
// the scatter/gather operators, and answer identity with the unsharded
// oracle at shard counts 1, 2, 4, 8 — and writes the JSON report to
// -shardout.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment to run: all, fig2, datalog, indexcost, datasets, ablation, reach, execprofile, serve, update, shard")
	scale := flag.Float64("scale", 1.0, "Advogato scale factor in (0,1]")
	seed := flag.Int64("seed", 1, "generator seed")
	runs := flag.Int("runs", 3, "samples per measurement (median reported)")
	buckets := flag.Int("buckets", 64, "equi-depth histogram buckets (0 = exact)")
	clients := flag.Int("clients", 8, "serve: maximum concurrent clients (measures 1,2,4,... up to this)")
	servedur := flag.Duration("servedur", 2*time.Second, "serve: measured window per client count")
	serveout := flag.String("serveout", "BENCH_serve.json", "serve: JSON report output path")
	updateout := flag.String("updateout", "BENCH_update.json", "update: JSON report output path")
	shardout := flag.String("shardout", "BENCH_shard.json", "shard: JSON report output path")
	flag.Parse()

	cfg := bench.Config{
		Scale:            *scale,
		Seed:             *seed,
		Runs:             *runs,
		Ks:               []int{1, 2, 3},
		HistogramBuckets: *buckets,
	}

	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	what := *experiment
	if what == "all" {
		// Report flags implicitly select their experiment; passing
		// several kinds runs them all.
		wantServe := flagPassed("clients") || flagPassed("servedur") || flagPassed("serveout")
		wantUpdate := flagPassed("updateout")
		wantShard := flagPassed("shardout")
		if wantServe {
			die(runServe(cfg, *clients, *servedur, *serveout))
		}
		if wantUpdate {
			die(runUpdate(cfg, *updateout))
		}
		if wantShard {
			die(runShard(cfg, *shardout))
		}
		if wantServe || wantUpdate || wantShard {
			return
		}
	}
	switch what {
	case "serve":
		die(runServe(cfg, *clients, *servedur, *serveout))
	case "update":
		die(runUpdate(cfg, *updateout))
	case "shard":
		die(runShard(cfg, *shardout))
	default:
		die(run(what, cfg))
	}
}

func runShard(cfg bench.Config, out string) error {
	_, table, err := bench.RunShard(cfg, out)
	if err != nil {
		return err
	}
	fmt.Println(table.String())
	if out != "" {
		fmt.Printf("report written to %s\n", out)
	}
	return nil
}

func runUpdate(cfg bench.Config, out string) error {
	_, table, err := bench.RunUpdate(cfg, out)
	if err != nil {
		return err
	}
	fmt.Println(table.String())
	if out != "" {
		fmt.Printf("report written to %s\n", out)
	}
	return nil
}

func flagPassed(name string) bool {
	passed := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			passed = true
		}
	})
	return passed
}

// clientCounts returns 1, 2, 4, ... up to and including max.
func clientCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var out []int
	for n := 1; n < max; n *= 2 {
		out = append(out, n)
	}
	return append(out, max)
}

func runServe(cfg bench.Config, clients int, dur time.Duration, out string) error {
	rep, table, err := bench.Serve(bench.ServeConfig{
		Config:   cfg,
		Clients:  clientCounts(clients),
		Duration: dur,
	})
	if err != nil {
		return err
	}
	fmt.Println(table.String())
	if httpTable := bench.HTTPServeTable(rep); httpTable != nil {
		fmt.Println(httpTable.String())
	}
	if out != "" {
		if err := bench.WriteServeReport(rep, out); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", out)
	}
	return nil
}

func run(experiment string, cfg bench.Config) error {
	printTables := func(ts []*bench.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			fmt.Println(t.String())
		}
		return nil
	}
	one := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		fmt.Println(t.String())
		return nil
	}

	switch experiment {
	case "fig2":
		return printTables(bench.Fig2(cfg))
	case "datalog":
		return one(bench.DatalogComparison(cfg))
	case "indexcost":
		return one(bench.IndexCost(cfg))
	case "datasets":
		return printTables(bench.Datasets(cfg))
	case "ablation":
		return printTables(bench.Ablation(cfg))
	case "reach":
		return one(bench.Reach(cfg))
	case "execprofile":
		return one(bench.ExecProfile(cfg))
	case "all":
		if err := printTables(bench.Fig2(cfg)); err != nil {
			return err
		}
		if err := one(bench.DatalogComparison(cfg)); err != nil {
			return err
		}
		if err := one(bench.IndexCost(cfg)); err != nil {
			return err
		}
		if err := printTables(bench.Datasets(cfg)); err != nil {
			return err
		}
		if err := printTables(bench.Ablation(cfg)); err != nil {
			return err
		}
		if err := one(bench.Reach(cfg)); err != nil {
			return err
		}
		return one(bench.ExecProfile(cfg))
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
}
