package pathdb_test

import (
	"fmt"
	"log"
	"os"
	"sort"

	pathdb "repro"
)

// The basic flow: build a graph, index it, query it.
func Example() {
	g := pathdb.NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	g.AddEdge("zoe", "knows", "sam")
	g.AddEdge("zoe", "worksFor", "ada")

	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Query("knows/worksFor")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Names {
		fmt.Printf("%s -> %s\n", p[0], p[1])
	}
	// Output:
	// ada -> ada
}

// Bounded recursion and unions expand into unions of label paths before
// planning.
func ExampleDB_Query_boundedRecursion() {
	g := pathdb.NewGraph()
	g.AddEdge("a", "next", "b")
	g.AddEdge("b", "next", "c")
	g.AddEdge("c", "next", "d")

	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		log.Fatal(err)
	}
	res, err := db.Query("next{2,3}")
	if err != nil {
		log.Fatal(err)
	}
	names := res.Names
	sort.Slice(names, func(i, j int) bool {
		if names[i][0] != names[j][0] {
			return names[i][0] < names[j][0]
		}
		return names[i][1] < names[j][1]
	})
	for _, p := range names {
		fmt.Printf("%s -> %s\n", p[0], p[1])
	}
	// Output:
	// a -> c
	// a -> d
	// b -> d
}

// QueryFrom answers single-source queries with prefix lookups instead of
// materializing the whole relation.
func ExampleDB_QueryFrom() {
	g := pathdb.NewGraph()
	g.AddEdge("root", "child", "left")
	g.AddEdge("root", "child", "right")
	g.AddEdge("left", "child", "leaf")

	db, err := pathdb.Build(g, pathdb.Options{K: 1})
	if err != nil {
		log.Fatal(err)
	}
	targets, err := db.QueryFrom("child{1,2}", "root")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(targets)
	// Output:
	// [left right leaf]
}

// The durable lifecycle: BuildDurable attaches a write-ahead log to the
// database, so every acknowledged ApplyBatch survives a crash. Reopening
// the same directory (with the same deterministic base graph) replays
// the log; Compact folds the update tiers into a checkpoint and
// truncates the log to the uncovered tail.
func ExampleBuildDurable() {
	baseGraph := func() *pathdb.Graph {
		g := pathdb.NewGraph()
		g.AddEdge("ada", "knows", "zoe")
		g.AddEdge("zoe", "worksFor", "ada")
		return g
	}
	dir, err := os.MkdirTemp("", "pathdb-durable")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dopts := pathdb.DurabilityOptions{Dir: dir}
	// On an index this small one edge exceeds DefaultCompactRatio; no
	// automatic compaction keeps the log as written until the explicit
	// Compact below.
	opts := pathdb.Options{K: 2, CompactRatio: -1}

	db, err := pathdb.BuildDurable(baseGraph(), opts, dopts)
	if err != nil {
		log.Fatal(err)
	}
	// The batch is on disk (fsync'd) before ApplyBatch returns.
	err = db.ApplyBatch([]pathdb.LabeledEdge{{Src: "sam", Label: "knows", Dst: "ada"}})
	if err != nil {
		log.Fatal(err)
	}
	db.Close() // or a crash — the log already holds the batch

	// A restart replays the log over the same base graph.
	db, err = pathdb.BuildDurable(baseGraph(), opts, dopts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	res, err := db.Query("knows/knows")
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.Names {
		fmt.Printf("%s -> %s\n", p[0], p[1])
	}
	fmt.Println("recovered batches:", db.DurabilityStats().RecoveredBatches)

	// Compact checkpoints the folded state and truncates the log.
	if err := db.Compact(); err != nil {
		log.Fatal(err)
	}
	st := db.DurabilityStats()
	fmt.Println("checkpoints:", st.Checkpoints, "log records:", st.WALRecords)
	// Output:
	// sam -> zoe
	// recovered batches: 1
	// checkpoints: 1 log records: 1
}

// Explain renders the physical plan the strategy chose.
func ExampleDB_Explain() {
	g := pathdb.NewGraph()
	g.AddEdge("x", "a", "y")
	g.AddEdge("y", "b", "z")

	db, err := pathdb.Build(g, pathdb.Options{K: 1})
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Explain("a/b", pathdb.StrategySemiNaive)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(plan)
	// Output:
	// plan strategy=semiNaive k=1 est_card=0.3 est_cost=4.3
	// └─ group-join (est card 0.3, cost 4.3)
	//    ├─ scan a (est 1.0)
	//    └─ scan b (est 1.0)
}
