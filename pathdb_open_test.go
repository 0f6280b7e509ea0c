package pathdb_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	pathdb "repro"
	"repro/internal/pathindex"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	lines := []string{
		"ada knows zoe", "zoe knows bob", "bob knows cid", "cid knows ada",
		"bob worksFor ada", "zoe worksFor ada", "cid worksFor zoe",
		"ada likes bob", "zoe likes cid",
	}
	path := filepath.Join(t.TempDir(), "graph.txt")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sortedNames(names [][2]string) [][2]string {
	out := slices.Clone(names)
	slices.SortFunc(out, func(a, b [2]string) int {
		if a[0] != b[0] {
			return strings.Compare(a[0], b[0])
		}
		return strings.Compare(a[1], b[1])
	})
	return out
}

// TestOpenServesWithoutRebuild is the save-once/open-many lifecycle:
// build once, persist the index, then Open must serve identical answers
// over the memory-mapped file with zero build work.
func TestOpenServesWithoutRebuild(t *testing.T) {
	graphPath := writeTestGraph(t)
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	built, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(t.TempDir(), "graph.pix")
	if err := built.SaveIndexV3(indexPath); err != nil {
		t.Fatal(err)
	}

	opened, err := pathdb.Open(graphPath, indexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer opened.Close()

	ws, bs := built.IndexStats(), opened.IndexStats()
	if bs.Entries != ws.Entries || bs.LabelPaths != ws.LabelPaths || bs.PathsKCount != ws.PathsKCount {
		t.Fatalf("opened index shape %+v differs from built %+v", bs, ws)
	}
	if bs.BuildMillis != 0 {
		t.Errorf("opened index reports build time %.2f ms; nothing should have been built", bs.BuildMillis)
	}

	queries := []string{
		"knows/worksFor", "knows{1,3}", "likes|worksFor^-", "knows*",
		"(knows/likes)?", "worksFor^-/knows",
	}
	for _, q := range queries {
		for _, s := range pathdb.Strategies() {
			want, err := built.QueryWith(q, s)
			if err != nil {
				t.Fatalf("built eval of %q: %v", q, err)
			}
			got, err := opened.QueryWith(q, s)
			if err != nil {
				t.Fatalf("opened eval of %q: %v", q, err)
			}
			if !slices.Equal(sortedNames(got.Names), sortedNames(want.Names)) {
				t.Fatalf("Open result for %q under %v differs from Build", q, s)
			}
		}
		wantFrom, err := built.QueryFrom(q, "ada")
		if err != nil {
			t.Fatalf("built QueryFrom(%q): %v", q, err)
		}
		gotFrom, err := opened.QueryFrom(q, "ada")
		if err != nil {
			t.Fatalf("opened QueryFrom(%q): %v", q, err)
		}
		if !slices.Equal(gotFrom, wantFrom) {
			t.Fatalf("Open QueryFrom for %q differs from Build", q)
		}
	}

	// The serving layer runs over the mapping too.
	srv := opened.Serve(pathdb.ServeOptions{})
	res, err := srv.Query("knows/worksFor")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Error("served query over mapped index returned no pairs")
	}
}

// TestOpenWithHonorsOptions reopens with the same non-default engine
// options as the original Build and checks the answers track them: a
// one-disjunct cap rejects knows|likes on both, while the default Open
// answers it, proving the option reached the rewriter.
func TestOpenWithHonorsOptions(t *testing.T) {
	graphPath := writeTestGraph(t)
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	opts := pathdb.Options{K: 2, MaxDisjuncts: 1}
	built, err := pathdb.Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	indexPath := filepath.Join(t.TempDir(), "graph.pix")
	if err := built.SaveIndexV3(indexPath); err != nil {
		t.Fatal(err)
	}
	reopened, err := pathdb.OpenWith(graphPath, indexPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	for name, db := range map[string]*pathdb.DB{"Build": built, "OpenWith": reopened} {
		if _, err := db.Query("knows|likes"); err == nil {
			t.Errorf("%s with MaxDisjuncts 1 answered a two-disjunct query", name)
		}
	}
	want, err := built.Query("knows*")
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Query("knows*")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sortedNames(got.Names), sortedNames(want.Names)) {
		t.Fatal("OpenWith with matching options disagrees with Build")
	}
	unbounded, err := pathdb.Open(graphPath, indexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer unbounded.Close()
	if _, err := unbounded.Query("knows|likes"); err != nil {
		t.Fatalf("default Open rejects knows|likes: %v", err)
	}
}

func TestOpenErrors(t *testing.T) {
	graphPath := writeTestGraph(t)
	dir := t.TempDir()

	if _, err := pathdb.Open(filepath.Join(dir, "missing.txt"), filepath.Join(dir, "missing.pix")); err == nil {
		t.Error("Open with a missing graph file succeeded")
	}
	if _, err := pathdb.Open(graphPath, filepath.Join(dir, "missing.pix")); err == nil {
		t.Error("Open with a missing index file succeeded")
	}

	// Close on a Build-produced DB is a harmless no-op.
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close on a built DB: %v", err)
	}
}

// TestOpenRejectsRetiredFormats: index files of formats v1, v2 and v3
// — whole, or just a header — are refused by every reader with an error
// that names the version, points at the rebuild and wraps
// pathindex.ErrFormatVersion, never mis-parsed and never a panic. The
// files are a current image with its version field rewritten, which is
// all any reader inspects before refusing.
func TestOpenRejectsRetiredFormats(t *testing.T) {
	graphPath := writeTestGraph(t)
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	built, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v3Path := filepath.Join(dir, "graph.v3")
	if err := built.SaveIndexV3(v3Path); err != nil {
		t.Fatal(err)
	}
	image, err := os.ReadFile(v3Path)
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string]func(path string) error{
		"pathdb.Open": func(path string) error {
			db, err := pathdb.Open(graphPath, path)
			if err == nil {
				db.Close()
			}
			return err
		},
		"pathdb.BuildWithIndex": func(path string) error {
			_, err := pathdb.BuildWithIndex(g, path, pathdb.Options{})
			return err
		},
		"pathindex.OpenStorage": func(path string) error {
			s, err := pathindex.OpenStorage(path, g)
			if err == nil {
				s.(io.Closer).Close()
			}
			return err
		},
		"pathindex.Load": func(path string) error {
			_, err := pathindex.Load(path, g)
			return err
		},
	}
	for _, version := range []uint32{1, 2, 3} {
		retired := slices.Clone(image)
		binary.LittleEndian.PutUint32(retired[4:], version)
		for _, size := range []int{len(retired), 16} {
			path := filepath.Join(dir, fmt.Sprintf("graph-v%d-%d.pix", version, size))
			if err := os.WriteFile(path, retired[:size], 0o644); err != nil {
				t.Fatal(err)
			}
			for name, read := range readers {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
						}
					}()
					return read(path)
				}()
				want := fmt.Sprintf("v%d", version)
				if !errors.Is(err, pathindex.ErrFormatVersion) || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "rpq build") {
					t.Errorf("%s on a %d-byte %s file: %v, want an error naming %s and `rpq build`", name, size, want, err, want)
				}
			}
		}
	}
}

// TestOpenRejectsMismatchedGraph is the reproducer of a deployment
// mistake that used to panic in name resolution: the index is built from
// an in-memory graph, but the graph opened beside it is that graph's
// saved edge list, re-interned in file order — isolated nodes vanish and
// the surviving identifiers shift, so the index names nodes the loaded
// graph does not have. Every open path must fail with ErrGraphMismatch.
func TestOpenRejectsMismatchedGraph(t *testing.T) {
	build := func(shards int) *pathdb.DB {
		g := pathdb.NewGraph()
		for _, iso := range []string{"iso1", "iso2", "iso3"} {
			g.Node(iso) // ids 0..2: never written to an edge list
		}
		g.AddEdge("ada", "knows", "zoe")
		g.AddEdge("zoe", "knows", "bob")
		g.AddEdge("bob", "worksFor", "ada")
		db, err := pathdb.Build(g, pathdb.Options{K: 2, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "graph.txt")
	if err := build(0).Graph().SaveEdgeList(graphPath); err != nil {
		t.Fatal(err)
	}
	saves := map[string]func(path string) error{
		"v3":      build(0).SaveIndexV3,
		"sharded": build(2).SaveShardedIndex,
	}
	for name, save := range saves {
		t.Run(name, func(t *testing.T) {
			indexPath := filepath.Join(dir, name+".pix")
			if err := save(indexPath); err != nil {
				t.Fatal(err)
			}
			if db, err := pathdb.Open(graphPath, indexPath); !errors.Is(err, pathdb.ErrGraphMismatch) {
				if err == nil {
					db.Close()
				}
				t.Fatalf("Open over the re-interned graph: %v, want ErrGraphMismatch", err)
			}
			dopts := pathdb.DurabilityOptions{Dir: filepath.Join(dir, name+".wal"), NoSync: true}
			if db, err := pathdb.OpenDurable(graphPath, indexPath, pathdb.Options{}, dopts); !errors.Is(err, pathdb.ErrGraphMismatch) {
				if err == nil {
					db.Close()
				}
				t.Fatalf("OpenDurable over the re-interned graph: %v, want ErrGraphMismatch", err)
			}
		})
	}
}
