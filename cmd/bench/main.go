// Command bench prints the paper's experiment tables: Figure 2 (query
// times per strategy and k), the Section 6 Datalog comparison, and the
// Ext-1..Ext-4 extension experiments, plus the executor profile.
//
// Usage:
//
//	bench [-experiment all|fig2|datalog|indexcost|datasets|ablation|reach|execprofile]
//	      [-scale 1.0] [-seed 1] [-runs 3] [-buckets 64]
//
// Full scale (-scale 1.0) matches the published Advogato dimensions and
// takes a few minutes, dominated by the k=3 index build; -scale 0.25
// runs in seconds. Serving, update and shard load lives in benchmark/
// (bash benchmark/run.sh).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment to run: all, fig2, datalog, indexcost, datasets, ablation, reach, execprofile")
	scale := flag.Float64("scale", 1.0, "Advogato scale factor in (0,1]")
	seed := flag.Int64("seed", 1, "generator seed")
	runs := flag.Int("runs", 3, "samples per measurement (median reported)")
	buckets := flag.Int("buckets", 64, "equi-depth histogram buckets (0 = exact)")
	flag.Parse()

	cfg := bench.Config{
		Scale:            *scale,
		Seed:             *seed,
		Runs:             *runs,
		Ks:               []int{1, 2, 3},
		HistogramBuckets: *buckets,
	}
	if err := run(*experiment, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
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
