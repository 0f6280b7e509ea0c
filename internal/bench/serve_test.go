package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestServeSmoke(t *testing.T) {
	cfg := ServeConfig{
		Config:        Config{Scale: 0.03, Seed: 1, Runs: 1, Ks: []int{2}, HistogramBuckets: 16},
		Clients:       []int{1, 2},
		Duration:      150 * time.Millisecond,
		RandomQueries: 8,
	}
	rep, table, err := Serve(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if table == nil || len(table.Rows) != 2 { // one row per client count
		t.Fatalf("table rows = %v, want 2", table)
	}
	if rep.Queries < 8 {
		t.Errorf("query mix has %d entries; want at least the Advogato eight", rep.Queries)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Ops == 0 || p.QPS <= 0 {
			t.Errorf("point %+v measured no traffic", p)
		}
		if p.Errors != 0 {
			t.Errorf("point %+v saw query errors", p)
		}
		if p.P50Millis > p.P99Millis {
			t.Errorf("point %+v has p50 > p99", p)
		}
	}

	path := filepath.Join(t.TempDir(), "serve.json")
	if err := WriteServeReport(rep, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back ServeReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if back.Queries != rep.Queries || len(back.Points) != len(rep.Points) {
		t.Error("round-tripped report lost fields")
	}
}

func TestServeBaselineIsOneClient(t *testing.T) {
	// Asking only for 2 clients must still measure the 1-client
	// baseline, so the speedup fields mean what their names say.
	rep, _, err := Serve(ServeConfig{
		Config:        Config{Scale: 0.03, Seed: 1, Runs: 1, Ks: []int{2}, HistogramBuckets: 16},
		Clients:       []int{2},
		Duration:      120 * time.Millisecond,
		RandomQueries: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var one, two *ServePoint
	for i := range rep.Points {
		p := &rep.Points[i]
		if p.Clients == 1 {
			one = p
		}
		if p.Clients == 2 {
			two = p
		}
	}
	if one == nil || two == nil {
		t.Fatalf("points missing 1- or 2-client measurement: %+v", rep.Points)
	}
	if one.Speedup != 1.0 {
		t.Errorf("1-client speedup = %v, want 1.0", one.Speedup)
	}
	if want := two.QPS / one.QPS; two.Speedup != want {
		t.Errorf("2-client speedup = %v, want QPS ratio %v", two.Speedup, want)
	}
}
