// Planlab walks through the life of a regular path query — the paper's
// demonstration scenario (Section 6): parsing, rewriting into a union of
// label paths, physical plan generation under each strategy, and
// execution. It uses the paper's own worked example
// R = knows ◦ (knows ◦ worksFor)^{2,4} ◦ worksFor from Section 4.
package main

import (
	"fmt"
	"log"

	pathdb "repro"
	"repro/internal/graph"
	"repro/internal/rewrite"
	"repro/internal/rpq"
)

func main() {
	const query = "knows/(knows/worksFor){2,4}/worksFor"

	// Stage 1: parse.
	expr, err := rpq.Parse(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("query:", expr)

	// Stage 2: rewrite — expand bounded recursion, pull unions up.
	norm, err := rewrite.Normalize(expr, rewrite.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nunion normal form (%d disjuncts):\n", len(norm.Paths)+len(norm.Closures))
	for _, p := range norm.Paths {
		fmt.Printf("  %s   (length %d)\n", p, len(p))
	}
	// Unbounded stars are not expanded: they would appear here as
	// closure disjuncts like a/(b|c)*/d, evaluated over the SCC
	// condensation of their body.
	for _, s := range norm.Closures {
		fmt.Printf("  %s   (closure, %d fixed steps)\n", s, s.FixedSteps())
	}

	// Stage 3: plan, on the paper's Figure 1 example graph, at k = 3 —
	// matching the Section 4 walk-through.
	g := graph.ExampleGraph()
	db, err := pathdb.Build(g, pathdb.Options{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range pathdb.Strategies() {
		fmt.Printf("\n=== %v ===\n", s)
		plan, err := db.Explain(query, s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(plan)
	}

	// Stage 4: execute.
	res, err := db.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanswer (%d pairs):\n", len(res.Pairs))
	for _, p := range res.Names {
		fmt.Printf("  %s -> %s\n", p[0], p[1])
	}
	fmt.Printf("\nstats: %d disjuncts; rewrite %v, plan %v, exec %v\n",
		res.Stats.Disjuncts, res.Stats.RewriteTime, res.Stats.PlanTime, res.Stats.ExecTime)

	// Bonus: the selectivity figures that drive minSupport's choices.
	fmt.Println("\nselectivities of the length-3 windows of the first disjunct:")
	for _, w := range []string{"knows/knows/worksFor", "knows/worksFor/knows", "worksFor/knows/worksFor", "knows/worksFor/worksFor"} {
		sel, err := db.Selectivity(w)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  sel(%s) = %.4f\n", w, sel)
	}
}
