// Package workload defines the query workloads of the experiments. The
// central one is the Advogato workload behind Figure 2 of Fletcher,
// Peters & Poulovassilis (EDBT 2016).
//
// The paper does not list its eight queries (they appear only in the
// companion MSc thesis), so Q1–Q8 here are representatives of the query
// classes the paper's discussion covers: compositions of increasing
// length, unions, inverse steps, and bounded recursions — including the
// paper's own worked-example shape R = ℓ ◦ (ℓ ◦ ℓ')^{2,4} ◦ ℓ'. Q9 and
// Q10 extend the workload with Kleene-closure classes (a restricted
// star over two labels, and a closure inside a composition), so the
// serving mix exercises the closure operator too. The workload exercises every rewrite and
// planning path; DESIGN.md records the substitution.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/rpq"
)

// Query is a named workload query.
type Query struct {
	Name string
	Text string
	Expr rpq.Expr
	// Class describes which query class the entry represents.
	Class string
}

// Advogato returns the ten-query workload over the Advogato trust
// labels (apprentice, journeyer, master): the eight query classes of
// the paper's discussion plus two Kleene-closure classes (Q9, Q10): the
// restricted shape a reachability index answers, and a closure whose
// input is a composition segment.
func Advogato() []Query {
	qs := []struct{ name, class, text string }{
		{"Q1", "short composition", "master/journeyer"},
		{"Q2", "medium composition", "master/master/journeyer"},
		{"Q3", "long composition", "journeyer/master/journeyer/apprentice/master/journeyer"},
		{"Q4", "union of compositions", "master/journeyer|journeyer/apprentice/master"},
		{"Q5", "inverse steps", "master/journeyer^-/apprentice/master^-"},
		{"Q6", "bounded recursion", "(master|journeyer){1,3}"},
		{"Q7", "worked example shape", "master/(apprentice/master){2,3}/journeyer"},
		{"Q8", "mixed", "(master|journeyer^-)/apprentice{1,2}/(master/journeyer|apprentice)"},
		{"Q9", "restricted closure", "(master|journeyer)*"},
		{"Q10", "closure in composition", "master/(apprentice)*"},
	}
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Name: q.name, Text: q.text, Expr: rpq.MustParse(q.text), Class: q.class}
	}
	return out
}

// Lookup returns the Advogato workload query with the given name.
func Lookup(name string) (Query, error) {
	for _, q := range Advogato() {
		if q.Name == name {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("workload: unknown query %q", name)
}

// Random generates n random queries over the given labels, for soak
// testing and the extended dataset experiments.
func Random(n int, labels []string, seed int64) []Query {
	r := rand.New(rand.NewSource(seed))
	opts := rpq.GenOptions{
		Labels:         labels,
		MaxDepth:       3,
		MaxFanout:      3,
		MaxRepeatBound: 3,
		AllowEpsilon:   false,
		AllowInverse:   true,
	}
	out := make([]Query, n)
	for i := range out {
		e := rpq.Generate(r, opts)
		out[i] = Query{
			Name:  fmt.Sprintf("R%d", i+1),
			Text:  e.String(),
			Expr:  e,
			Class: "random",
		}
	}
	return out
}
