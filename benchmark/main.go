// Command benchmark is the repository's one benchmark: five named
// workloads over a built, saved and reopened k-path index, end-to-end
// metrics with regression bounds, and a traced run that splits each
// operation's time over the layers beneath it. README.md defines every
// metric and workload; BENCHMARK.json declares them to the driver.
//
//	bash benchmark/run.sh --workload serve.zipf --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh --seed 1          # all workloads, one report
//	bash benchmark/run.sh --seed 1 --aa     # the suite twice, compared to the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the driver's result line; empty runs all five")
		seed     = flag.Int64("seed", 1, "seed of the operation sequences, lookup sources and update edges")
		secs     = flag.Float64("seconds", 10, "measured window of each run")
		trace    = flag.Int("trace", 0, "1 runs the traced ladder and reports per-layer metrics instead of end-to-end ones")
		clients  = flag.Int("clients", 2, "closed-loop clients; BENCHMARK.json pins 2, raise it on a host with more cores")
		aa       = flag.Bool("aa", false, "run the suite twice and fail if any end-to-end metric differs by more than its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *clients < 1 || *clients > runtime.NumCPU() {
		fatal(fmt.Errorf("-clients %d: load comes from this process, so it must be between 1 and the %d CPUs", *clients, runtime.NumCPU()))
	}
	cfg := &config{
		seed: *seed, seconds: *secs, clients: *clients,
		scale: 0.1, updScale: 0.1, setups: 5, reopens: 25, lookups: 4096,
		out: filepath.Join("benchmark", "out"),
	}
	work, err := os.MkdirTemp(mkdirAll(".bench_build"), "work-")
	if err != nil {
		fatal(err)
	}
	cfg.work = work
	code := 0
	switch {
	case *workload != "":
		code = runOne(cfg, *workload, *trace == 1)
	case *aa:
		code = runAA(cfg)
	default:
		code = runSuite(cfg, *trace == 1)
	}
	os.RemoveAll(work)
	os.Exit(code)
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// measure runs one workload in its own scratch directory.
func measure(cfg *config, w *workloadDef, traced bool) (*result, error) {
	sub := *cfg
	sub.work = filepath.Join(cfg.work, w.Name)
	defer os.RemoveAll(sub.work)
	if traced {
		return w.trace(&sub)
	}
	return w.run(&sub)
}

func printResult(r *result) {
	mode := "end-to-end"
	if r.Traced {
		mode = "per-layer"
	}
	fmt.Printf("%s  (%s; %d operations attempted, %d failed)\n", r.Workload, mode, r.Attempted, r.Failed)
	for _, m := range append(append([]metric{}, r.Metrics...), r.Info...) {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Printf("  %-32s %14.6g %-7s%s\n", m.Name, m.Value, m.Unit, n)
	}
	if len(r.Dropped) > 0 {
		fmt.Printf("  %d generated candidates dropped by the host-independent caps (named in the report)\n", len(r.Dropped))
	}
}

// runOne is the driver's contract: one workload, and as the last line of
// standard output one JSON object with the declared metrics.
func runOne(cfg *config, name string, traced bool) int {
	w := findWorkload(name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	r, err := measure(cfg, w, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
		return 1
	}
	printResult(r)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{m.Value, m.Unit}
	}
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// header opens every report file: where and how it was measured.
type header struct {
	Host    hostStamp `json:"host"`
	Seed    int64     `json:"seed"`
	Clients int       `json:"clients"`
	Seconds float64   `json:"seconds"`
	// Claim is null: the benchmark is the ruler, it claims no gain.
	Claim *string `json:"claim"`
}

func newHeader(cfg *config) header {
	return header{Host: stampHost(), Seed: cfg.seed, Clients: cfg.clients, Seconds: cfg.seconds}
}

// report is what the suite writes to out/report.json.
type report struct {
	header
	Results []*result `json:"results"`
}

func suite(cfg *config, traced bool) (*report, error) {
	rep := &report{header: newHeader(cfg)}
	for i := range workloads {
		r, err := measure(cfg, &workloads[i], traced)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workloads[i].Name, err)
		}
		printResult(r)
		rep.Results = append(rep.Results, r)
	}
	return rep, nil
}

func (rep *report) failed() int {
	n := 0
	for _, r := range rep.Results {
		n += r.Failed
	}
	return n
}

func writeJSON(cfg *config, name string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(mkdirAll(cfg.out), name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", path)
}

// runSuite runs all five workloads untraced and, with -trace 1, traced
// as well, and states the traced throughput beside the untraced one.
func runSuite(cfg *config, traced bool) int {
	rep, err := suite(cfg, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if traced {
		trep, err := suite(cfg, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		for i, tr := range trep.Results {
			// One traced client against one untraced client's share.
			per := find(rep.Results[i].Metrics, "qps") / float64(rep.Results[i].Clients)
			fmt.Printf("%-20s traced %.4g 1/s with one client, untraced %.4g per client: traced/untraced %.3f\n",
				tr.Workload, find(tr.Metrics, "trace.qps"), per, find(tr.Metrics, "trace.qps")/per)
		}
		rep.Results = append(rep.Results, trep.Results...)
	}
	writeJSON(cfg, "report.json", rep)
	if rep.failed() > 0 {
		return 1
	}
	return 0
}

func find(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// aaRow is one end-to-end metric of one workload measured twice.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	// Worse is how much worse the second run is than the first, as a
	// share of the first; negative when it is better.
	Worse  float64 `json:"worse"`
	Bound  float64 `json:"bound"`
	Breach bool    `json:"breach"`
}

// runAA runs the suite twice on the same code and compares every
// end-to-end metric of every workload with its bound.
func runAA(cfg *config) int {
	var reps [2]*report
	for i := range reps {
		fmt.Printf("A/A run %d of 2\n", i+1)
		rep, err := suite(cfg, false)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		reps[i] = rep
	}
	var rows []aaRow
	breaches := 0
	for i, r := range reps[0].Results {
		for j, d := range endToEnd {
			a, b := r.Metrics[j].Value, reps[1].Results[i].Metrics[j].Value
			worse := (b - a) / a
			if d.Better == "higher" {
				worse = (a - b) / a
			}
			row := aaRow{Workload: r.Workload, Metric: d.Name, Unit: d.Unit, First: a, Second: b, Worse: worse, Bound: d.Bound, Breach: worse > d.Bound}
			if row.Breach {
				breaches++
			}
			rows = append(rows, row)
			fmt.Printf("%-20s %-22s %12.6g %12.6g  worse by %+7.2f%%  bound %4.0f%%  %s\n",
				row.Workload, row.Metric, a, b, 100*worse, 100*d.Bound, map[bool]string{true: "BREACH", false: "ok"}[row.Breach])
		}
	}
	writeJSON(cfg, "aa.json", struct {
		header
		Rows []aaRow `json:"rows"`
	}{newHeader(cfg), rows})
	if breaches > 0 || reps[0].failed()+reps[1].failed() > 0 {
		return 1
	}
	return 0
}
