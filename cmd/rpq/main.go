// Command rpq is the interactive face of the reproduction: it loads an
// edge-list graph, builds a k-path index, and evaluates or explains
// regular path queries — the "life of a regular path query" walkthrough
// of the paper's demonstration (Section 6).
//
// Usage:
//
//	rpq -graph FILE [-k 2] [-strategy minSupport] [-buckets 64] \
//	    (-query RPQ | -explain RPQ | -stats)
//
//	rpq build -graph FILE -index FILE [-k 2] [-shards N]
//	rpq serve -graph FILE -index FILE [-strategy minSupport] [-limit 20] [-http ADDR] [-durable DIR]
//	rpq wal -dir DIR [-v]
//
// The build/serve pair exercises the save-once/open-many lifecycle:
// `build` constructs the k-path index and writes it block-compressed in
// format v4; `serve` maps the file, decodes it block by block on scan,
// and answers queries read from stdin, one per line. An index file of
// the retired formats v1–v3 is refused by name: rerun `build`.
// With -shards N, `build` partitions the index by source node and
// writes a directory of per-shard v4 files plus a manifest; `serve`
// auto-detects that layout too and runs the same plans over it.
// A malformed query line is reported on stderr and serving continues;
// non-zero exit is reserved for setup failures (bad flags, unreadable
// graph or index) and input read errors.
//
// With -durable, serve opens the database through the write-ahead log
// in DIR: a WAL left by a previous process (including one that crashed)
// is replayed over the (graph, index) base before serving starts, and
// the recovery tally is printed. `rpq wal` prints the same directory's
// log record by record — batches, spills, checkpoints, and any torn
// crash residue — without modifying anything; -v also lists the edges
// inside each batch.
//
// With -http the same database is served over HTTP instead (see
// internal/httpserve: POST /query streams NDJSON result pairs,
// /prepare + /execute are PREPARE/EXECUTE, each call compiling anew,
// GET /explain prints plans, GET /stats reports counters). SIGINT and
// SIGTERM trigger a graceful shutdown that drains in-flight queries
// before the index is released.
//
// Examples:
//
//	rpq -graph social.txt -k 3 -query 'knows/(knows/worksFor){2,4}/worksFor'
//	rpq -graph social.txt -k 3 -explain 'knows/knows/worksFor' -strategy semiNaive
//	rpq -graph social.txt -k 2 -stats
//	rpq build -graph social.txt -k 3 -index social.pix
//	echo 'knows/worksFor' | rpq serve -graph social.txt -index social.pix
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	pathdb "repro"
	"repro/internal/httpserve"
	"repro/internal/wal"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "build":
			if err := runBuild(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "rpq build:", err)
				os.Exit(1)
			}
			return
		case "serve":
			if err := runServe(os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "rpq serve:", err)
				os.Exit(1)
			}
			return
		case "wal":
			if err := runWAL(os.Args[2:], os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "rpq wal:", err)
				os.Exit(1)
			}
			return
		}
	}

	graphPath := flag.String("graph", "", "edge-list file: one 'source label target' per line (required)")
	k := flag.Int("k", 2, "path-index locality parameter")
	strategyName := flag.String("strategy", "minSupport", "naive, semiNaive, minSupport, or minJoin")
	buckets := flag.Int("buckets", 64, "equi-depth histogram buckets (0 = exact)")
	query := flag.String("query", "", "RPQ to evaluate")
	explain := flag.String("explain", "", "RPQ to explain (print the physical plan)")
	stats := flag.Bool("stats", false, "print graph and index statistics")
	limit := flag.Int("limit", 20, "maximum result pairs to print (0 = all)")
	flag.Parse()

	if err := run(*graphPath, *k, *strategyName, *buckets, *query, *explain, *stats, *limit); err != nil {
		fmt.Fprintln(os.Stderr, "rpq:", err)
		os.Exit(1)
	}
}

// runBuild implements `rpq build`: construct the index once and persist
// it block-compressed (format v4) for any number of later `rpq serve`
// cold starts.
func runBuild(args []string) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list file (required)")
	indexPath := fs.String("index", "", "output index file (required); a directory when -shards > 1")
	k := fs.Int("k", 2, "path-index locality parameter")
	shards := fs.Int("shards", 1, "partition the index by source node into this many shards (writes a directory of per-shard v4 files + manifest)")
	fs.Parse(args)
	if *graphPath == "" || *indexPath == "" {
		return fmt.Errorf("-graph and -index are required")
	}
	g, err := pathdb.LoadGraph(*graphPath)
	if err != nil {
		return err
	}
	db, err := pathdb.Build(g, pathdb.Options{K: *k, Shards: *shards})
	if err != nil {
		return err
	}
	t0 := time.Now()
	if *shards > 1 {
		if err := db.SaveShardedIndex(*indexPath); err != nil {
			return err
		}
	} else if err := db.SaveIndexV3(*indexPath); err != nil {
		return err
	}
	st := db.IndexStats()
	fmt.Printf("built k=%d index: %d entries over %d label paths in %.2f ms\n",
		db.K(), st.Entries, st.LabelPaths, st.BuildMillis)
	size, err := pathSize(*indexPath)
	if err != nil {
		return err
	}
	if *shards > 1 {
		ss := db.ShardStats()
		fmt.Printf("wrote %s: %d bytes across %d %s-partitioned shards (%.2fx vs raw pairs) in %.2f ms\n",
			*indexPath, size, ss.Shards, ss.Partitioner, float64(8*st.Entries)/float64(size),
			float64(time.Since(t0).Microseconds())/1000.0)
	} else {
		fmt.Printf("wrote %s: %d bytes (format v4, %.2fx vs raw pairs) in %.2f ms\n",
			*indexPath, size, float64(8*st.Entries)/float64(size),
			float64(time.Since(t0).Microseconds())/1000.0)
	}
	return nil
}

// pathSize is the byte size of a file, or the summed size of a sharded
// layout directory's entries.
func pathSize(path string) (int64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !fi.IsDir() {
		return fi.Size(), nil
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// runServe implements `rpq serve`: memory-map a prebuilt index and
// answer queries from stdin — or, with -http, over HTTP — without ever
// rebuilding.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	graphPath := fs.String("graph", "", "edge-list file (required)")
	indexPath := fs.String("index", "", "index file or sharded directory from `rpq build` (required)")
	strategyName := fs.String("strategy", "minSupport", "naive, semiNaive, minSupport, or minJoin")
	limit := fs.Int("limit", 20, "maximum result pairs to print per query (0 = all)")
	httpAddr := fs.String("http", "", "serve over HTTP on this address (e.g. :8080) instead of stdin")
	httpDeadline := fs.Duration("http-deadline", 0, "default per-request execution deadline in HTTP mode (0 = none)")
	durableDir := fs.String("durable", "", "durability directory: recover its write-ahead log before serving and log applied batches to it")
	fs.Parse(args)
	if *graphPath == "" || *indexPath == "" {
		return fmt.Errorf("-graph and -index are required")
	}
	strategy, err := pathdb.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var db *pathdb.DB
	if *durableDir != "" {
		db, err = pathdb.OpenDurable(*graphPath, *indexPath, pathdb.Options{}, pathdb.DurabilityOptions{Dir: *durableDir})
	} else {
		db, err = pathdb.Open(*graphPath, *indexPath)
	}
	if err != nil {
		return err
	}
	defer db.Close()
	st := db.IndexStats()
	fmt.Printf("opened %s in %.2f ms: k=%d, %d entries over %d label paths (no rebuild)\n",
		*indexPath, float64(time.Since(t0).Microseconds())/1000.0, db.K(), st.Entries, st.LabelPaths)
	if ss := db.ShardStats(); ss.Shards > 0 {
		fmt.Printf("sharded: %d %s-partitioned shards; scans read them in turn\n",
			ss.Shards, ss.Partitioner)
	}
	if *durableDir != "" {
		ds := db.DurabilityStats()
		fmt.Printf("recovered %s: %d batches replayed (%d via spill shortcuts), resuming at seq %d epoch %d\n",
			*durableDir, ds.RecoveredBatches, ds.RecoveredSpills, ds.NextSeq, db.UpdateStats().Epoch)
	}

	if *httpAddr != "" {
		return serveHTTP(db, *httpAddr, *strategyName, *httpDeadline)
	}
	srv := db.Serve(pathdb.ServeOptions{})
	return serveLines(srv, strategy, *limit, os.Stdin, os.Stdout, os.Stderr)
}

// runWAL implements `rpq wal`: print a durability directory's
// write-ahead log record by record, without opening it for writing or
// repairing anything — safe to run against the directory of a live or
// crashed process.
func runWAL(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("wal", flag.ExitOnError)
	dir := fs.String("dir", "", "durability directory holding "+pathdb.WALFileName+" (required)")
	verbose := fs.Bool("v", false, "also list the edges inside each batch record")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	path := filepath.Join(*dir, pathdb.WALFileName)
	recs, size, torn, err := wal.Inspect(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d records, %d bytes", path, len(recs), size)
	if torn > 0 {
		fmt.Fprintf(out, " (%d-byte torn tail — crash residue, dropped on next open)", torn)
	}
	fmt.Fprintln(out)
	for _, r := range recs {
		switch r.Type {
		case wal.TypeBatch:
			br, err := wal.DecodeBatch(r.Payload)
			if err != nil {
				fmt.Fprintf(out, "seq %-6d batch       undecodable: %v\n", r.Seq, err)
				continue
			}
			fmt.Fprintf(out, "seq %-6d batch       epoch %-6d %d edges\n", r.Seq, br.Epoch, len(br.Edges))
			if *verbose {
				for _, e := range br.Edges {
					fmt.Fprintf(out, "           %s -[%s]-> %s\n", e.Src, e.Label, e.Dst)
				}
			}
		case wal.TypeSpill:
			sr, err := wal.DecodeSpill(r.Payload)
			if err != nil {
				fmt.Fprintf(out, "seq %-6d spill       undecodable: %v\n", r.Seq, err)
				continue
			}
			fmt.Fprintf(out, "seq %-6d spill       epoch %-6d seqs %d..%d -> %s%s\n",
				r.Seq, sr.Epoch, sr.FromSeq, sr.ToSeq, sr.File, fileNote(filepath.Join(*dir, sr.File)))
		case wal.TypeCheckpoint:
			cr, err := wal.DecodeCheckpoint(r.Payload)
			if err != nil {
				fmt.Fprintf(out, "seq %-6d checkpoint  undecodable: %v\n", r.Seq, err)
				continue
			}
			fmt.Fprintf(out, "seq %-6d checkpoint  epoch %-6d upto %d: %s%s + %s%s\n",
				r.Seq, cr.Epoch, cr.UptoSeq,
				cr.GraphFile, fileNote(filepath.Join(*dir, cr.GraphFile)),
				cr.IndexFile, fileNote(filepath.Join(*dir, cr.IndexFile)))
		default:
			fmt.Fprintf(out, "seq %-6d type %-6d %d payload bytes\n", r.Seq, r.Type, len(r.Payload))
		}
	}
	return nil
}

// fileNote annotates a referenced side file with its size, or flags it
// missing — a missing spill just costs replay time, a missing
// checkpoint file is fatal on the next open.
func fileNote(path string) string {
	fi, err := os.Stat(path)
	if err != nil {
		return " (MISSING)"
	}
	if fi.IsDir() { // a sharded checkpoint index
		return " (sharded directory)"
	}
	return fmt.Sprintf(" (%d bytes)", fi.Size())
}

// serveHTTP runs the HTTP front end until SIGINT/SIGTERM, then shuts
// down gracefully: the listener closes, in-flight queries drain, and
// only after that does the caller's deferred db.Close release the
// index.
func serveHTTP(db *pathdb.DB, addr, strategy string, deadline time.Duration) error {
	hsrv, err := httpserve.New(db, httpserve.Options{
		Strategy:       strategy,
		DefaultTimeout: deadline,
	})
	if err != nil {
		return err
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	errc := make(chan error, 1)
	go func() { errc <- hsrv.ListenAndServe(addr) }()
	fmt.Printf("serving HTTP on %s\n", addr)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Printf("%v: draining in-flight queries\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return hsrv.Shutdown(ctx)
	}
}

// serveLines answers queries read line by line (of any length — no
// scanner token limit) until EOF. A query that fails to parse, compile,
// or execute is reported on errw and serving continues; only a read
// failure on in aborts the loop. EOF exits cleanly, so non-zero exit
// codes stay reserved for setup failures.
func serveLines(srv *pathdb.Server, strategy pathdb.Strategy, limit int, in io.Reader, out, errw io.Writer) error {
	r := bufio.NewReader(in)
	for {
		line, err := r.ReadString('\n')
		query := strings.TrimSpace(line)
		if query != "" && !strings.HasPrefix(query, "#") {
			res, qerr := srv.QueryWith(query, strategy)
			if qerr != nil {
				fmt.Fprintf(errw, "error: %v\n", qerr)
			} else {
				fprintPairs(out, res, limit)
				fmt.Fprintf(out, "%d pairs; exec %v\n", len(res.Pairs), res.Stats.ExecTime.Round(1000))
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// fprintPairs renders a query's pair listing (sorted by name, truncated
// to limit); callers append their own statistics trailer. The default
// command and `serve` share it so their listings stay line-identical.
func fprintPairs(w io.Writer, res *pathdb.Result, limit int) {
	names := res.Names
	sort.Slice(names, func(i, j int) bool {
		if names[i][0] != names[j][0] {
			return names[i][0] < names[j][0]
		}
		return names[i][1] < names[j][1]
	})
	shown := len(names)
	if limit > 0 && shown > limit {
		shown = limit
	}
	for _, p := range names[:shown] {
		fmt.Fprintf(w, "%s -> %s\n", p[0], p[1])
	}
	if shown < len(names) {
		fmt.Fprintf(w, "... (%d more)\n", len(names)-shown)
	}
}

func run(graphPath string, k int, strategyName string, buckets int, query, explain string, stats bool, limit int) error {
	if graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if query == "" && explain == "" && !stats {
		return fmt.Errorf("one of -query, -explain, or -stats is required")
	}
	strategy, err := pathdb.ParseStrategy(strategyName)
	if err != nil {
		return err
	}
	g, err := pathdb.LoadGraph(graphPath)
	if err != nil {
		return err
	}
	db, err := pathdb.Build(g, pathdb.Options{K: k, HistogramBuckets: buckets})
	if err != nil {
		return err
	}

	if stats {
		st := db.IndexStats()
		gs := g.ComputeStats()
		fmt.Printf("graph: %d nodes, %d edges, %d labels (max out-degree %d, max in-degree %d)\n",
			gs.Nodes, gs.Edges, gs.Labels, gs.MaxOutDeg, gs.MaxInDeg)
		fmt.Printf("index: k=%d, %d entries over %d label paths, |paths_k| = %d, built in %.2f ms\n",
			db.K(), st.Entries, st.LabelPaths, st.PathsKCount, st.BuildMillis)
	}

	if explain != "" {
		out, err := db.Explain(explain, strategy)
		if err != nil {
			return err
		}
		fmt.Print(out)
	}

	if query != "" {
		res, err := db.QueryWith(query, strategy)
		if err != nil {
			return err
		}
		fprintPairs(os.Stdout, res, limit)
		disjuncts := fmt.Sprintf("%d disjuncts", res.Stats.Disjuncts)
		if res.Stats.Closures > 0 {
			disjuncts += fmt.Sprintf(" + %d closures", res.Stats.Closures)
		}
		fmt.Printf("%d pairs; %s; rewrite %v, plan %v, exec %v\n",
			len(res.Pairs), disjuncts,
			res.Stats.RewriteTime.Round(1000), res.Stats.PlanTime.Round(1000), res.Stats.ExecTime.Round(1000))
	}
	return nil
}
