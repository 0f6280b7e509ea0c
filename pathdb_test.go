package pathdb

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

func exampleDB(t testing.TB, k int) *DB {
	t.Helper()
	db, err := Build(graph.ExampleGraph(), Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Options{K: 1}); err == nil {
		t.Error("nil graph should fail")
	}
	if _, err := Build(NewGraph(), Options{K: 0}); err == nil {
		t.Error("K=0 should fail")
	}
}

func TestQuickstartFlow(t *testing.T) {
	g := NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	g.AddEdge("zoe", "worksFor", "ada")
	db, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("knows/worksFor")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 1 || res.Names[0] != [2]string{"ada", "ada"} {
		t.Errorf("knows/worksFor = %v", res.Names)
	}
}

func TestQueryWithAllStrategies(t *testing.T) {
	db := exampleDB(t, 2)
	var sizes []int
	for _, s := range Strategies() {
		res, err := db.QueryWith("knows/knows|worksFor^-", s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		sizes = append(sizes, len(res.Pairs))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] != sizes[0] {
			t.Errorf("strategies disagree on result size: %v", sizes)
		}
	}
}

func TestDefaultStrategy(t *testing.T) {
	db := exampleDB(t, 2)
	a, err := db.Query("knows")
	if err != nil {
		t.Fatal(err)
	}
	db.SetDefaultStrategy(StrategyNaive)
	b, err := db.Query("knows")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Pairs) != len(b.Pairs) {
		t.Error("default strategy change altered results")
	}
}

func TestExplain(t *testing.T) {
	db := exampleDB(t, 3)
	out, err := db.Explain("knows/(knows/worksFor){2,4}/worksFor", StrategySemiNaive)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "group-join") {
		t.Errorf("Explain output unexpected:\n%s", out)
	}
}

func TestIndexStats(t *testing.T) {
	db := exampleDB(t, 2)
	st := db.IndexStats()
	if st.Entries == 0 || st.LabelPaths == 0 || st.PathsKCount == 0 {
		t.Errorf("IndexStats incomplete: %+v", st)
	}
	if db.K() != 2 {
		t.Errorf("K = %d", db.K())
	}
}

func TestSelectivity(t *testing.T) {
	db := exampleDB(t, 2)
	sel, err := db.Selectivity("supervisor/knows")
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0 || sel > 0.2 {
		t.Errorf("supervisor/knows selectivity = %g, expected small", sel)
	}
	if _, err := db.Selectivity("knows/knows/knows"); err == nil {
		t.Error("path longer than k should error")
	}
	if _, err := db.Selectivity("knows|worksFor"); err == nil {
		t.Error("non-path expression should error")
	}
	sel, err = db.Selectivity("unknownlabel")
	if err != nil || sel != 0 {
		t.Errorf("unknown label selectivity = %g, %v", sel, err)
	}
}

func TestLoadGraph(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	content := "x knows y\ny knows z\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	db, err := Build(g, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Query("knows/knows")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 1 || res.Names[0] != [2]string{"x", "z"} {
		t.Errorf("knows/knows = %v", res.Names)
	}
	if _, err := LoadGraph(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file should error")
	}
}

func TestQueryErrors(t *testing.T) {
	db := exampleDB(t, 1)
	if _, err := db.Query("knows/("); err == nil {
		t.Error("syntax error should surface")
	}
}

func TestStatsExposed(t *testing.T) {
	db := exampleDB(t, 2)
	res, err := db.Query("knows{1,2}")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Disjuncts != 2 {
		t.Errorf("Disjuncts = %d, want 2", res.Stats.Disjuncts)
	}
	if res.Stats.ExecTime <= 0 {
		t.Error("ExecTime missing")
	}
}
