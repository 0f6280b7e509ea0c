package core

import (
	"math/rand"
	"testing"

	"repro/internal/plan"
)

func TestServeStrategiesDoNotAlias(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 40, 120, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	s := e.Serve(ServeOptions{})
	for _, strat := range []plan.Strategy{plan.Naive, plan.MinSupport} {
		prep, err := s.Prepare("a/b/a", strat)
		if err != nil {
			t.Fatal(err)
		}
		if got := prep.Plan().Strategy; got != strat {
			t.Errorf("plan prepared under %v has strategy %v", strat, got)
		}
	}
}

// TestServeCacheDisabled: the server keeps no plans, so every repeat of
// a query pays rewrite and planning again and nothing counts as a hit.
func TestServeCacheDisabled(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(3)), 30, 80, []string{"a"})
	e := newTestEngine(t, g, 1)
	s := e.Serve(ServeOptions{})
	for i := 0; i < 3; i++ {
		res, err := s.Query("a/a", plan.SemiNaive)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RewriteTime == 0 || res.Stats.PlanTime == 0 {
			t.Errorf("request %d: rewrite %v, plan %v; want both measured", i, res.Stats.RewriteTime, res.Stats.PlanTime)
		}
	}
	st := s.Stats()
	if st.Requests != 3 || st.Errors != 0 {
		t.Errorf("ServeStats = %+v, want requests=3 errors=0", st)
	}
	if st.HitRate() != 0 {
		t.Errorf("HitRate = %v, want 0", st.HitRate())
	}
}

// TestServeErrorsCounted: every failing request is counted, and a
// repeated failure pays the full pipeline again and fails the same way.
func TestServeErrorsCounted(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(4)), 20, 40, []string{"a", "b"})
	e, err := NewEngine(g, Options{K: 2, MaxDisjuncts: 16})
	if err != nil {
		t.Fatal(err)
	}
	s := e.Serve(ServeOptions{})
	// A parse error and a rewrite-limit blowout, each asked twice.
	for _, bad := range []string{"a{", "(a|b){12}"} {
		_, err1 := s.Query(bad, plan.Naive)
		if err1 == nil {
			t.Fatalf("%q: error expected", bad)
		}
		if _, err2 := s.Query(bad, plan.Naive); err2 == nil || err2.Error() != err1.Error() {
			t.Errorf("%q repeated: got %v, want %v", bad, err2, err1)
		}
	}
	if _, err := s.Query("a/b", plan.Naive); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests != 5 || st.Errors != 4 {
		t.Errorf("ServeStats = %+v, want requests=5 errors=4", st)
	}
	if st.HitRate() != 0 {
		t.Errorf("HitRate = %v, want 0", st.HitRate())
	}
}

func TestServeMatchesEngine(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(5)), 60, 200, []string{"a", "b", "c"})
	e := newTestEngine(t, g, 2)
	s := e.Serve(ServeOptions{})
	queries := []string{"a/b", "a|b/c", "(a|b){1,2}", "c^-/a", "a?"}
	for _, q := range queries {
		for _, strat := range plan.Strategies() {
			want, err := e.EvalQuery(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Query(q, strat)
			if err != nil {
				t.Fatal(err)
			}
			if !pairsEqualAsSets(want, got) {
				t.Errorf("%s under %v: served answer differs from engine", q, strat)
			}
		}
	}
}

func pairsEqualAsSets(a, b *Result) bool {
	as, bs := pairSet(a.Pairs), pairSet(b.Pairs)
	if len(as) != len(bs) {
		return false
	}
	for p := range as {
		if !bs[p] {
			return false
		}
	}
	return true
}
