package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rpq"
)

// The concurrency tests drive one shared Engine from 16 goroutines and
// are meant to run under the race detector (go test -race); they verify
// both freedom from data races (executor scratch buffers, statistics)
// and that concurrent answers equal sequential ones.

const concurrency = 16

func sortedPairs(ps []pathindex.Pair) []pathindex.Pair {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(a, b pathindex.Pair) int {
		if a.Src != b.Src {
			return int(a.Src) - int(b.Src)
		}
		return int(a.Dst) - int(b.Dst)
	})
	return out
}

func TestConcurrentExecute(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(7)), 80, 240, []string{"a", "b", "c"})
	e := newTestEngine(t, g, 2)
	// a* and a/b* exercise the closure operator under contention.
	queries := []string{"a/b", "a|b/c", "(a|b){1,2}", "c^-/a/b", "a?/c", "a*", "a/b*"}

	// Sequential baselines, plus one shared Prepared per query: sharing
	// a Prepared across goroutines is part of the documented contract.
	preps := make([]*Prepared, len(queries))
	want := make([][]pathindex.Pair, len(queries))
	for i, q := range queries {
		prep, err := e.Compile(rpq.MustParse(q), plan.MinSupport)
		if err != nil {
			t.Fatal(err)
		}
		preps[i] = prep
		res, err := prep.Execute()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedPairs(res.Pairs)
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 8; it++ {
				qi := (w + it) % len(queries)
				// Alternate between re-executing the shared Prepared
				// and compiling fresh through the engine.
				var res *Result
				var err error
				if it%2 == 0 {
					res, err = preps[qi].Execute()
				} else {
					res, err = e.EvalQuery(queries[qi], plan.Strategies()[it%4])
				}
				if err != nil {
					t.Error(err)
					return
				}
				if got := sortedPairs(res.Pairs); !slices.Equal(got, want[qi]) {
					t.Errorf("worker %d: concurrent answer for %q differs from baseline", w, queries[qi])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentEvalFrom(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(8)), 60, 200, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	expr := rpq.MustParse("a/b|b{1,2}")

	want := make([][]graph.NodeID, g.NumNodes())
	for n := 0; n < g.NumNodes(); n++ {
		targets, err := e.EvalFrom(expr, graph.NodeID(n))
		if err != nil {
			t.Fatal(err)
		}
		want[n] = targets
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 12; it++ {
				n := (w*17 + it*5) % g.NumNodes()
				targets, err := e.EvalFrom(expr, graph.NodeID(n))
				if err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(targets, want[n]) {
					t.Errorf("worker %d: EvalFrom(%d) differs from baseline", w, n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestConcurrentServe(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(9)), 80, 240, []string{"a", "b", "c"})
	e := newTestEngine(t, g, 2)
	s := e.Serve(ServeOptions{})

	// Include syntactically distinct spellings of the same query.
	queries := []string{"a/b|c", "c|a/b", "a|b", "b|a", "a/b/c", "b{1,2}", "c^-/a"}
	want := make(map[string][]pathindex.Pair, len(queries))
	for _, q := range queries {
		res, err := e.EvalQuery(q, plan.MinSupport)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = sortedPairs(res.Pairs)
	}

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				q := queries[(w*3+it)%len(queries)]
				res, err := s.Query(q, plan.MinSupport)
				if err != nil {
					t.Error(err)
					return
				}
				if got := sortedPairs(res.Pairs); !slices.Equal(got, want[q]) {
					t.Errorf("worker %d: served answer for %q differs from baseline", w, q)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if got := int(st.Requests); got != concurrency*10 {
		t.Errorf("Requests = %d, want %d", got, concurrency*10)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d, want 0", st.Errors)
	}
}

func TestConcurrentExecuteParallelAndServe(t *testing.T) {
	// Mix the batch-parallel executor with serving traffic on one
	// engine: both walk the same immutable index concurrently.
	g := randomGraph(rand.New(rand.NewSource(10)), 60, 180, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	s := e.Serve(ServeOptions{})
	prep, err := e.Compile(rpq.MustParse("a/b|b/a|a{2}"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	base, err := prep.Execute()
	if err != nil {
		t.Fatal(err)
	}
	want := sortedPairs(base.Pairs)

	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for it := 0; it < 6; it++ {
				if w%2 == 0 {
					res, err := prep.ExecuteParallel(3)
					if err != nil {
						t.Error(err)
						return
					}
					if got := sortedPairs(res.Pairs); !slices.Equal(got, want) {
						t.Error("ExecuteParallel answer differs under concurrency")
						return
					}
				} else {
					res, err := s.Query("a/b|b/a|a{2}", plan.MinSupport)
					if err != nil {
						t.Error(err)
						return
					}
					if got := sortedPairs(res.Pairs); !slices.Equal(got, want) {
						t.Error("served answer differs under concurrency")
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
