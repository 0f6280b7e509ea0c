package bench

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"name", "value"},
		Notes:  []string{"a note"},
	}
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "22")
	out := tab.String()
	if !strings.HasPrefix(out, "demo\n") {
		t.Errorf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Errorf("missing note:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + header + rule + 2 rows + note.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns aligned: the value column starts at the same offset in
	// every data row.
	h := strings.Index(lines[1], "value")
	r1 := strings.Index(lines[3], "1")
	r2 := strings.Index(lines[4], "22")
	if h != r1 || h != r2 {
		t.Errorf("columns not aligned (%d/%d/%d):\n%s", h, r1, r2, out)
	}
}

func TestMedian(t *testing.T) {
	ds := []time.Duration{5, 1, 9}
	if m := median(ds); m != 5 {
		t.Errorf("median = %v, want 5", m)
	}
	// Input must not be mutated.
	if ds[0] != 5 || ds[1] != 1 || ds[2] != 9 {
		t.Errorf("median mutated input: %v", ds)
	}
}

func TestTimeIt(t *testing.T) {
	calls := 0
	d, err := timeIt(3, func() error { calls++; return nil })
	if err != nil || d < 0 {
		t.Fatalf("timeIt: %v, %v", d, err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if _, err := timeIt(0, func() error { return nil }); err != nil {
		t.Errorf("runs=0 should clamp to 1: %v", err)
	}
}

// tinyConfig keeps harness smoke tests under a second each.
func tinyConfig() Config {
	return Config{Scale: 0.01, Seed: 1, Runs: 1, Ks: []int{1, 2}, HistogramBuckets: 8}
}

func TestFig2Smoke(t *testing.T) {
	tables, err := Fig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables, want one per k", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) != 10 {
			t.Errorf("table %q has %d rows, want 10", tab.Title, len(tab.Rows))
		}
		if len(tab.Header) != 6 {
			t.Errorf("table %q has %d columns", tab.Title, len(tab.Header))
		}
	}
	// Result sizes must be strategy-independent: the pairs column is
	// shared, so instead re-run and compare row-by-row determinism.
	again, err := Fig2(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tables {
		for j := range tables[i].Rows {
			if tables[i].Rows[j][5] != again[i].Rows[j][5] {
				t.Errorf("result pairs not deterministic at table %d row %d", i, j)
			}
		}
	}
}

func TestDatalogComparisonSmoke(t *testing.T) {
	tab, err := DatalogComparison(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[6] != "yes" {
			t.Errorf("query %s: engines disagree: %v", row[0], row)
		}
	}
}

func TestIndexCostSmoke(t *testing.T) {
	tab, err := IndexCost(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 4 datasets × 2 ks.
	if len(tab.Rows) != 8 {
		t.Fatalf("got %d rows, want 8", len(tab.Rows))
	}
}

func TestDatasetsSmoke(t *testing.T) {
	tables, err := Datasets(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
}

func TestAblationSmoke(t *testing.T) {
	tables, err := Ablation(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || len(tables[0].Rows) != 6 {
		t.Fatalf("unexpected ablation shape")
	}
}

func TestReachSmoke(t *testing.T) {
	tab, err := Reach(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows", len(tab.Rows))
	}
	// The general RPQ row must be n/a for the reachability index.
	if tab.Rows[2][1] != "n/a" {
		t.Errorf("reachability index should reject the composition query: %v", tab.Rows[2])
	}
	// The multi-label star used to overflow the path-index expansion;
	// the closure operator must evaluate it.
	if strings.Contains(tab.Rows[1][4], "n/a") {
		t.Errorf("multi-label star should evaluate as a closure: %v", tab.Rows[1])
	}
}

func TestExecProfileSmoke(t *testing.T) {
	tab, err := ExecProfile(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("got %d rows, want 10", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// Any query with intermediate rows must have recorded batches.
		if row[3] != "0" && row[4] == "0" {
			t.Errorf("query %s moved rows but recorded no batches: %v", row[0], row)
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	c, err := Config{}.normalize()
	if err != nil || c.Scale != 1.0 || c.Runs != 1 || len(c.Ks) != 3 {
		t.Errorf("normalize: %+v, %v", c, err)
	}
	for _, scale := range []float64{-0.5, 1.5, 2, math.NaN()} {
		if _, err := (Config{Scale: scale}).normalize(); err == nil || !strings.Contains(err.Error(), "(0,1]") {
			t.Errorf("scale %v: err = %v, want out-of-range error", scale, err)
		}
	}
	// A runner reports the range error instead of panicking in the
	// generator.
	if _, err := IndexCost(Config{Scale: 2}); err == nil {
		t.Error("IndexCost accepted scale 2")
	}
}
