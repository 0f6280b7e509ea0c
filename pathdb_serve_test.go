package pathdb_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	pathdb "repro"
)

func serveTestDB(t *testing.T) *pathdb.DB {
	t.Helper()
	g := pathdb.NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	g.AddEdge("zoe", "knows", "kim")
	g.AddEdge("kim", "worksFor", "ada")
	g.AddEdge("zoe", "worksFor", "ada")
	g.AddEdge("ada", "worksFor", "kim")
	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestServeMatchesQuery(t *testing.T) {
	db := serveTestDB(t)
	srv := db.Serve(pathdb.ServeOptions{})
	queries := []string{"knows/worksFor", "knows|worksFor", "(knows){1,2}", "worksFor^-/knows"}
	for round := 0; round < 2; round++ {
		for _, q := range queries {
			want, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := srv.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Pairs) != len(want.Pairs) || len(got.Names) != len(want.Names) {
				t.Fatalf("round %d: served %q returned %d pairs, want %d", round, q, len(got.Pairs), len(want.Pairs))
			}
		}
	}
	st := srv.Stats()
	// db.Query does not go through the server: only the two served
	// rounds count as requests.
	if st.Requests != int64(2*len(queries)) {
		t.Errorf("Requests = %d, want %d", st.Requests, 2*len(queries))
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
}

func TestServeConcurrentClients(t *testing.T) {
	db := serveTestDB(t)
	srv := db.Serve(pathdb.ServeOptions{})
	queries := []string{"knows/worksFor", "knows|worksFor", "knows{1,2}"}
	want := make(map[string]int)
	for _, q := range queries {
		res, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = len(res.Pairs)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := srv.Query(q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Pairs) != want[q] {
					t.Errorf("concurrent served %q: %d pairs, want %d", q, len(res.Pairs), want[q])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := srv.Stats(); st.Requests != 160 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 160 requests, 0 errors", st)
	}
}

func TestSetDefaultStrategyConcurrent(t *testing.T) {
	db := serveTestDB(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%2 == 0 {
					db.SetDefaultStrategy(pathdb.Strategies()[i%4])
				} else if _, err := db.Query("knows/worksFor"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStreamWithReusesNamesBuffer is the allocation guard of the named
// streaming path: the names slice handed to fn is one buffer per call,
// not one per batch, so a stream of many batches allocates no more than
// a stream of one (operator set-up, parse and plan are the same query
// shape both times: a single index scan).
func TestStreamWithReusesNamesBuffer(t *testing.T) {
	build := func(edges int) *pathdb.Server {
		g := pathdb.NewGraph()
		for i := 0; i < edges; i++ {
			g.AddEdge(fmt.Sprintf("n%d", i), "next", fmt.Sprintf("n%d", i+1))
		}
		db, err := pathdb.Build(g, pathdb.Options{K: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		return db.Serve(pathdb.ServeOptions{})
	}
	allocs := func(srv *pathdb.Server) (perRun float64, batches int) {
		var first *[2]string
		run := func() {
			batches = 0
			_, err := srv.StreamWith(context.Background(), "next", srv.Strategy(), func(pairs []pathdb.Pair, names [][2]string) error {
				if len(names) != len(pairs) {
					t.Fatalf("%d names for %d pairs", len(names), len(pairs))
				}
				if batches == 0 {
					first = &names[0]
				} else if first != &names[0] {
					t.Fatal("names buffer reallocated between batches")
				}
				batches++
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(20, run), batches // runs once to warm up first
	}
	one, oneBatches := allocs(build(1000))
	many, manyBatches := allocs(build(40000))
	if oneBatches != 1 || manyBatches < 30 {
		t.Fatalf("fixture streams %d and %d batches, want 1 and ≥30", oneBatches, manyBatches)
	}
	if many > one+2 {
		t.Errorf("StreamWith allocates %.0f times over %d batches but %.0f over one: not O(1) per call", many, manyBatches, one)
	}
}
