package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	pathdb "repro"
)

// serveLines must report per-line query errors and keep serving; only
// EOF (clean) or a reader failure ends the loop.
func TestServeLinesKeepsServingAfterErrors(t *testing.T) {
	g := pathdb.NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	g.AddEdge("zoe", "worksFor", "ada")
	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := db.Serve(pathdb.ServeOptions{})

	in := strings.NewReader("knows\n((broken\n# comment\n\nworksFor\n")
	var out, errw strings.Builder
	if err := serveLines(srv, pathdb.StrategyMinSupport, 0, in, &out, &errw); err != nil {
		t.Fatalf("serveLines: %v", err)
	}
	if !strings.Contains(out.String(), "ada -> zoe") {
		t.Errorf("first query missing from output:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "zoe -> ada") {
		t.Errorf("query after bad line missing from output:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "error:") {
		t.Errorf("bad line not reported on errw: %q", errw.String())
	}
	if strings.Contains(out.String(), "error:") {
		t.Errorf("error leaked onto out: %q", out.String())
	}
}

// `rpq wal` renders a durability directory's log: batch records with
// their epochs, checkpoint records with their side files, and -v edge
// listings — all without modifying the directory.
func TestRunWAL(t *testing.T) {
	dir := t.TempDir()
	g := pathdb.NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	db, err := pathdb.BuildDurable(g, pathdb.Options{K: 2, CompactRatio: -1},
		pathdb.DurabilityOptions{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	batch := []pathdb.LabeledEdge{{Src: "zoe", Label: "knows", Dst: "sam"}}
	if err := db.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyBatch([]pathdb.LabeledEdge{{Src: "sam", Label: "knows", Dst: "ada"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, pathdb.WALFileName))
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := runWAL([]string{"-dir", dir, "-v"}, &out); err != nil {
		t.Fatalf("runWAL: %v", err)
	}
	s := out.String()
	for _, want := range []string{"checkpoint", "batch", "sam -[knows]-> ada", "bytes"} {
		if !strings.Contains(s, want) {
			t.Errorf("wal listing missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "MISSING") {
		t.Errorf("wal listing flags side files missing:\n%s", s)
	}

	after, err := os.ReadFile(filepath.Join(dir, pathdb.WALFileName))
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("rpq wal modified the log")
	}

	if err := runWAL([]string{"-dir", t.TempDir()}, &out); err == nil {
		t.Error("runWAL accepted a directory without a log")
	}
}

// A line longer than any fixed scanner token limit must not abort the
// session: it is just another bad (or even good) query line.
func TestServeLinesHugeLine(t *testing.T) {
	g := pathdb.NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := db.Serve(pathdb.ServeOptions{})

	huge := strings.Repeat("nosuchlabel|", 1<<18) + "nosuchlabel" // ~3 MiB line
	in := strings.NewReader(huge + "\nknows\n")
	var out, errw strings.Builder
	if err := serveLines(srv, pathdb.StrategyMinSupport, 0, in, &out, &errw); err != nil {
		t.Fatalf("serveLines: %v", err)
	}
	if !strings.Contains(out.String(), "ada -> zoe") {
		t.Errorf("query after huge line missing from output:\n%s", out.String())
	}
}

// `rpq build -shards N` writes the sharded directory layout and the
// serve path auto-detects it, answering exactly like an unsharded
// build.
func TestRunBuildShardedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.txt")
	lines := "ada knows zoe\nzoe knows bob\nbob worksFor ada\nzoe worksFor ada\n"
	if err := os.WriteFile(graphPath, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	indexDir := filepath.Join(dir, "graph.pixd")
	if err := runBuild([]string{"-graph", graphPath, "-index", indexDir, "-k", "2", "-shards", "3"}); err != nil {
		t.Fatalf("runBuild -shards: %v", err)
	}
	if _, err := os.Stat(filepath.Join(indexDir, "SHARDS.json")); err != nil {
		t.Fatalf("sharded build wrote no manifest: %v", err)
	}

	db, err := pathdb.Open(graphPath, indexDir)
	if err != nil {
		t.Fatalf("Open of sharded layout: %v", err)
	}
	defer db.Close()
	if ss := db.ShardStats(); ss.Shards != 3 {
		t.Fatalf("opened layout has %d shards, want 3", ss.Shards)
	}
	srv := db.Serve(pathdb.ServeOptions{})
	var out, errw strings.Builder
	in := strings.NewReader("knows/worksFor\n")
	if err := serveLines(srv, pathdb.StrategyMinSupport, 0, in, &out, &errw); err != nil {
		t.Fatalf("serveLines over sharded index: %v", err)
	}
	if !strings.Contains(out.String(), "ada -> ada") {
		t.Errorf("sharded serve answer missing pair:\n%s", out.String())
	}
}
