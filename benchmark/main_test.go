package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smokeConfig is the whole harness at toy size: a 327-node graph,
// fractions of a second per window, one set-up.
func smokeConfig(t *testing.T, seed int64) *config {
	dir := t.TempDir()
	return &config{
		seed: seed, seconds: 0.25, clients: 2,
		scale: 0.05, updScale: 0.05, setups: 1, reopens: 1, lookups: 64,
		work: filepath.Join(dir, "work"), out: filepath.Join(dir, "out"),
	}
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(file.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if file.Workloads[i].Name != w.Name || file.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %q, code %q", i, file.Workloads[i].Name, w.Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("file declares %d+%d metrics, code %d+%d", len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if f := file.EndToEnd[i]; f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better || f.Bound != d.Bound {
			t.Errorf("end_to_end %d: file %+v, code %+v", i, f, d)
		}
	}
	for i, d := range perLayer {
		if f := file.PerLayer[i]; f.Name != d.Name || f.Unit != d.Unit || f.Better != d.Better {
			t.Errorf("per_layer %d: file %+v, code %+v", i, f, d)
		}
	}
}

// checkMetrics asserts that a run emitted exactly the declared metrics,
// in order, each with its unit. End-to-end metrics must be positive;
// per-layer ones may be 0 (a layer the workload does not reach) or, as
// differences of two measurements, negative.
func checkMetrics(t *testing.T, r *result, decl []declared, positive bool) {
	t.Helper()
	if r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%s: %d attempted, %d failed", r.Workload, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(decl) {
		t.Fatalf("%s: %d metrics emitted, %d declared", r.Workload, len(r.Metrics), len(decl))
	}
	for i, d := range decl {
		m := r.Metrics[i]
		if m.Name != d.Name || m.Unit != d.Unit {
			t.Errorf("%s: metric %d is %s [%s], declared %s [%s]", r.Workload, i, m.Name, m.Unit, d.Name, d.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0) {
			t.Errorf("%s: %s = %v", r.Workload, m.Name, m.Value)
		}
	}
}

func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, 1)
			r1, err := measure(cfg, w, false)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r1, endToEnd, true)

			// Another seed: another operation sequence, the same schema.
			cfg2 := smokeConfig(t, 2)
			r2, err := measure(cfg2, w, false)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, r2, endToEnd, true)
			if r1.SequenceHash == r2.SequenceHash {
				t.Errorf("seeds 1 and 2 replay the same sequence (hash %x)", r1.SequenceHash)
			}

			rt, err := measure(cfg, w, true)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, rt, perLayer, false)
			checkTrace(t, filepath.Join(cfg.out, "trace."+w.Name+".json"))
		})
	}
}

// checkTrace asserts on a trace file that spans are well formed and that
// self times are non-negative and sum, down every tree, to the root's
// total.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || len(tf.Layers) == 0 {
		t.Fatalf("%s: %d spans, %d layers", path, len(tf.Spans), len(tf.Layers))
	}
	ids := map[int]bool{}
	for _, s := range tf.Spans {
		if ids[s.ID] || s.End < s.Start || (s.Parent != 0 && !ids[s.Parent]) {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		ids[s.ID] = true
	}
	var sumSelf func(name string) float64
	sumSelf = func(name string) float64 {
		var sum float64
		for _, l := range tf.Layers {
			if l.Name == name {
				if l.SelfMS < 0 {
					t.Errorf("%s: %s has self time %v", path, name, l.SelfMS)
				}
				sum += l.SelfMS
			}
			if l.Parent == name {
				sum += sumSelf(l.Name)
			}
		}
		return sum
	}
	for _, l := range tf.Layers {
		if l.Parent != "" {
			continue
		}
		if got := sumSelf(l.Name); math.Abs(got-l.TotalMS) > 1e-6*math.Max(1, l.TotalMS) {
			t.Errorf("%s: self times under %s sum to %v ms, its span is %v ms", path, l.Name, got, l.TotalMS)
		}
	}
}

func TestMixSamplesPostStratify(t *testing.T) {
	m := newMixSamples([]float64{0.75, 0.25})
	for i := 0; i < 10; i++ {
		m.ms[1] = append(m.ms[1], 100) // over-represented in the window
	}
	m.ms[0] = append(m.ms[0], 1, 1)
	if got, want := m.meanMS(), 0.75*1+0.25*100; math.Abs(got-want) > 1e-9 {
		t.Errorf("meanMS = %v, want %v", got, want)
	}
	if got := m.quantileMS(0.5); got != 1 {
		t.Errorf("p50 = %v, want 1: the light stratum holds 75 %% of the mix", got)
	}
	if got := m.quantileMS(0.95); got != 100 {
		t.Errorf("p95 = %v, want 100", got)
	}
}
