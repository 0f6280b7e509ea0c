package workload

import (
	"testing"

	"repro/internal/rewrite"
	"repro/internal/rpq"
)

func TestAdvogatoWorkloadShape(t *testing.T) {
	qs := Advogato()
	if len(qs) != 10 {
		t.Fatalf("workload has %d queries, want 10", len(qs))
	}
	names := map[string]bool{}
	for _, q := range qs {
		if names[q.Name] {
			t.Errorf("duplicate query name %s", q.Name)
		}
		names[q.Name] = true
		if q.Expr == nil || q.Text == "" || q.Class == "" {
			t.Errorf("%s incomplete: %+v", q.Name, q)
		}
		if err := rpq.Validate(q.Expr); err != nil {
			t.Errorf("%s invalid: %v", q.Name, err)
		}
		// Labels restricted to the Advogato vocabulary.
		for _, l := range rpq.Labels(q.Expr) {
			switch l {
			case "apprentice", "journeyer", "master":
			default:
				t.Errorf("%s uses non-Advogato label %q", q.Name, l)
			}
		}
		// Every query must be expandable with the default limits.
		if _, err := rewrite.Normalize(q.Expr, rewrite.Options{}); err != nil {
			t.Errorf("%s does not normalize: %v", q.Name, err)
		}
	}
}

func TestWorkloadCoversClasses(t *testing.T) {
	// At least one query with a union, one with an inverse, one with
	// bounded recursion — the classes the paper discusses — and one
	// Kleene closure, so the serving mix exercises the closure operators.
	var hasUnion, hasInverse, hasRecursion, hasClosure bool
	for _, q := range Advogato() {
		var walk func(e rpq.Expr)
		walk = func(e rpq.Expr) {
			switch v := e.(type) {
			case rpq.Union:
				hasUnion = true
				for _, a := range v.Alts {
					walk(a)
				}
			case rpq.Concat:
				for _, p := range v.Parts {
					walk(p)
				}
			case rpq.Repeat:
				hasRecursion = true
				if v.Max == rpq.Unbounded {
					hasClosure = true
				}
				walk(v.Sub)
			case rpq.Step:
				if v.Inverse {
					hasInverse = true
				}
			}
		}
		walk(q.Expr)
	}
	if !hasUnion || !hasInverse || !hasRecursion || !hasClosure {
		t.Errorf("workload classes missing: union=%v inverse=%v recursion=%v closure=%v",
			hasUnion, hasInverse, hasRecursion, hasClosure)
	}
}

func TestWorkedExampleShapePresent(t *testing.T) {
	q, err := Lookup("Q7")
	if err != nil {
		t.Fatal(err)
	}
	n, err := rewrite.Normalize(q.Expr, rewrite.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ℓ ◦ (ℓ'◦ℓ)^{2,3} ◦ ℓ'' has the paper's Section 4 walk-through
	// shape and expands to exactly 2 disjuncts of lengths 6 and 8.
	if len(n.Paths) != 2 {
		t.Fatalf("Q7 expands to %d disjuncts, want 2", len(n.Paths))
	}
	for i, want := range []int{6, 8} {
		if len(n.Paths[i]) != want {
			t.Errorf("Q7 disjunct %d has length %d, want %d", i, len(n.Paths[i]), want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("Q99"); err == nil {
		t.Error("unknown query should error")
	}
}

func TestRandomWorkload(t *testing.T) {
	qs := Random(20, []string{"a", "b"}, 42)
	if len(qs) != 20 {
		t.Fatalf("got %d queries", len(qs))
	}
	for _, q := range qs {
		if err := rpq.Validate(q.Expr); err != nil {
			t.Errorf("%s invalid: %v", q.Name, err)
		}
	}
	// Deterministic.
	qs2 := Random(20, []string{"a", "b"}, 42)
	for i := range qs {
		if qs[i].Text != qs2[i].Text {
			t.Errorf("Random not deterministic at %d: %q vs %q", i, qs[i].Text, qs2[i].Text)
		}
	}
}
