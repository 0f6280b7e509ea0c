package graph

// ExampleGraph returns the running example graph Gex of the paper
// (Figure 1): nine people over the vocabulary
// {supervisor, knows, worksFor}.
//
// The published figure is not fully recoverable from the paper text, so
// this fixture is a reconstruction designed to satisfy the paper's
// precisely checkable facts:
//
//   - supervisor ∘ worksFor⁻ (Gex) = {(kim, sue)}            (Section 2.2)
//   - (sam, ada) ∈ paths₂(Gex) via exactly the two witnesses
//     sam ←knows– zoe –worksFor→ ada and sam ←knows– zoe ←knows– ada,
//     and (sam, ada) ∉ paths₁(Gex)                           (Section 2.1)
//   - I(knows·knows·worksFor, jan)      = ⟨ada, jan, kim⟩    (Example 3.1)
//   - I(knows·knows·worksFor, jan, ada) = ⟨()⟩               (Example 3.1)
//   - I(knows·knows·worksFor, jan, joe) = ⟨⟩                 (Example 3.1)
//
// plus the rows for ada ↦ {tim} and kim ↦ {joe} of Example 3.1. The
// remaining rows of Example 3.1 and the exact (supervisor ∪ worksFor ∪
// worksFor⁻)^{4,5} answer depend on figure edges the paper does not state;
// TestGexKkwFullRelation (internal/core) pins where our reconstruction
// diverges.
func ExampleGraph() *Graph {
	g := New()
	knowsEdges := [][2]string{
		{"zoe", "sam"},
		{"ada", "zoe"},
		{"jan", "ada"},
		{"jan", "liz"},
		{"jan", "kim"},
		{"liz", "tim"},
		{"kim", "sue"},
		{"kim", "joe"},
		{"joe", "liz"},
		{"joe", "ada"},
		{"tim", "zoe"},
		{"tim", "kim"},
	}
	worksForEdges := [][2]string{
		{"zoe", "ada"},
		{"sue", "kim"},
		{"tim", "jan"},
		{"sam", "tim"},
		{"liz", "joe"},
	}
	for _, e := range knowsEdges {
		g.AddEdge(e[0], "knows", e[1])
	}
	for _, e := range worksForEdges {
		g.AddEdge(e[0], "worksFor", e[1])
	}
	g.AddEdge("kim", "supervisor", "kim")
	g.Freeze()
	return g
}
