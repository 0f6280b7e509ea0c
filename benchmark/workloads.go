package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	pathdb "repro"
	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/httpserve"
)

// config is what one invocation fixes for every workload it runs.
type config struct {
	seed     int64
	seconds  float64 // measured window of each run
	clients  int     // closed-loop load generators, at most nproc
	scale    float64 // Advogato scale of the read fixtures
	updScale float64 // Advogato scale of the update fixture
	setups   int     // how often set-up is repeated for a median
	reopens  int     // how often the restart behind recovery_s is repeated
	lookups  int     // distinct operations of lookup.from
	work     string  // scratch directory for fixtures
	out      string  // directory for trace files and reports
}

// result is what one run of one workload reports. Metrics holds exactly
// the metrics BENCHMARK.json declares for the run's mode; Info holds
// what is printed and reported beside them.
type result struct {
	Workload string   `json:"workload"`
	Traced   bool     `json:"traced"`
	Metrics  []metric `json:"metrics"`
	Info     []metric `json:"info,omitempty"`
	// Clients is the number of closed-loop readers behind qps.
	Clients   int      `json:"clients,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Dropped   []string `json:"dropped_candidates,omitempty"`
	// SequenceHash identifies the seed-determined operation sequence.
	SequenceHash uint64 `json:"sequence_hash"`
}

// workloadDef names a workload and says why it exists; later issues
// cite the names.
type workloadDef struct {
	Name  string
	Why   string
	run   func(cfg *config) (*result, error)
	trace func(cfg *config) (*result, error)
}

var workloads = []workloadDef{
	readWorkload(serveZipf(1),
		"production read path: HTTP /query on the v3 file, plans cached, so join, decode and wire-encoding changes show and front-end ones must not"),
	readWorkload(serveZipf(4),
		"the same requests through Scatter/Gather over 4 shards: its qps gap to serve.zipf is the scatter tax, which an exchange-operator change moves alone"),
	readWorkload(closureStar(),
		"in-process Kleene closures into a counting sink: Closure/StreamClosure/ReachScan do the work and httpserve none, the contrast row for wire changes"),
	readWorkload(lookupFrom(),
		"single-source QueryFrom on the v3 file: SrcRange point lookups, tiny answers, parse and rewrite on every call, so front-end cost is a visible share"),
	{
		Name:  "update.durable",
		Why:   "fsync'd batches beside a reader: the only row where wal, delta build, merge-at-scan and compaction run, so read gains bought with write or space cost show",
		run:   runUpdate,
		trace: traceUpdate,
	},
}

func readWorkload(spec readSpec, why string) workloadDef {
	return workloadDef{
		Name:  spec.name,
		Why:   why,
		run:   func(c *config) (*result, error) { return runRead(c, spec) },
		trace: func(c *config) (*result, error) { return traceRead(c, spec) },
	}
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// readSpec describes a read workload: which fixture it serves from and
// how its operations are made and issued.
type readSpec struct {
	name   string
	shards int
	// open builds the operations, their oracle answers and the way to
	// issue them over an opened fixture, and runs the correctness gate.
	open func(cfg *config, fx *fixture) (*readLoad, error)
}

// readLoad is a read workload ready to be timed.
type readLoad struct {
	ops     []op
	shares  []float64 // per stratum
	seq     []int     // the seed-determined operation sequence, replayed cyclically
	dropped []string
	// top names the ladder rung that call is.
	top string
	// call issues one operation for a client and returns the size of the
	// answer and, over a wire, its bytes.
	call func(client int, o *op) (n int, bytes int64, err error)
	// stop, when set, releases what call needs (a listener) before the
	// fixture closes.
	stop func() error
	// first answers one query on a freshly opened DB, for recovery_s.
	first func(db *pathdb.DB) error
}

func (l *readLoad) close() error {
	if l.stop == nil {
		return nil
	}
	return l.stop()
}

func (l *readLoad) sequenceHash() uint64 {
	var x expect
	for pos, i := range l.seq {
		o := &l.ops[i]
		x.add(fmt.Sprint(pos, o.Query.Text), o.Source)
	}
	return x.Hash
}

// drawSequence draws n stratum-or-op indexes i.i.d. from shares.
func drawSequence(r *rand.Rand, shares []float64, n int) []int {
	cum := make([]float64, len(shares))
	var sum float64
	for i, s := range shares {
		sum += s
		cum[i] = sum
	}
	seq := make([]int, n)
	for i := range seq {
		x := r.Float64() * sum
		j := 0
		for j < len(cum)-1 && cum[j] < x {
			j++
		}
		seq[i] = j
	}
	return seq
}

const sequenceLength = 4096

// serveZipf is serve.zipf (shards == 1) and serve.zipf.shard4: the same
// Zipf(1.1) request sequence over Q1–Q8 and the generated queries,
// through POST /query on a loopback listener.
func serveZipf(shards int) readSpec {
	name := "serve.zipf"
	if shards > 1 {
		name = fmt.Sprintf("serve.zipf.shard%d", shards)
	}
	return readSpec{name: name, shards: shards, open: func(cfg *config, fx *fixture) (*readLoad, error) {
		e, closer, err := fx.sideEngine()
		if err != nil {
			return nil, err
		}
		mix, dropped := serveMix(e)
		closer.Close()
		ops, err := pairOps(fx.db.Graph(), mix)
		if err != nil {
			return nil, err
		}
		if err := gatePairs(fx.db.Serve(pathdb.ServeOptions{}), ops); err != nil {
			return nil, err
		}
		hs, err := startHTTP(fx.db)
		if err != nil {
			return nil, err
		}
		clients := make([]*httpClient, cfg.clients)
		for i := range clients {
			clients[i] = hs.client(i)
		}
		// One request per distinct query warms the HTTP server's own plan
		// cache and checks the wire path's pair count.
		for i := range ops {
			n, _, err := clients[0].query(ops[i].Query.Text)
			if err == nil && n != ops[i].Want.Count {
				err = fmt.Errorf("%d pairs over HTTP, oracle %d", n, ops[i].Want.Count)
			}
			if err != nil {
				hs.stop()
				return nil, fmt.Errorf("gate: %s: %w", ops[i].Query.Name, err)
			}
		}
		shares := zipfShares(len(ops), 1.1)
		return &readLoad{
			ops: ops, shares: shares, dropped: dropped,
			seq: drawSequence(rand.New(rand.NewSource(cfg.seed)), shares, sequenceLength),
			top: "httpserve.query",
			call: func(client int, o *op) (int, int64, error) {
				return clients[client].query(o.Query.Text)
			},
			stop:  hs.stop,
			first: firstPairs(ops[0].Query.Text),
		}, nil
	}}
}

// firstPairs answers one pair query in-process on a reopened DB.
func firstPairs(text string) func(db *pathdb.DB) error {
	return func(db *pathdb.DB) error {
		_, err := countPairs(context.Background(), db.Serve(pathdb.ServeOptions{}), text)
		return err
	}
}

// closureStar is closure.star: four Kleene-closure shapes through
// Server.StreamWith into a counting sink. The shares put the median and
// the 95th percentile of the mix inside one query's latencies each, not
// on the gap between two queries, where they would flip between runs.
func closureStar() readSpec {
	return readSpec{name: "closure.star", shards: 1, open: func(cfg *config, fx *fixture) (*readLoad, error) {
		mix := append(advogato("Q10"),
			namedQuery("S-inv", "(apprentice^-)*"),      // inverse-label star, reach-routed
			namedQuery("S-body", "(master/journeyer)*"), // two-step body, general closure
		)
		mix = append(mix, advogato("Q9")...) // restricted star, reach-routed
		shares := []float64{3. / 8, 2. / 8, 2. / 8, 1. / 8}
		ops, err := pairOps(fx.db.Graph(), mix)
		if err != nil {
			return nil, err
		}
		srv := fx.db.Serve(pathdb.ServeOptions{})
		if err := gatePairs(srv, ops); err != nil {
			return nil, err
		}
		return &readLoad{
			ops: ops, shares: shares,
			seq: drawSequence(rand.New(rand.NewSource(cfg.seed)), shares, sequenceLength),
			top: "core.stream_names",
			call: func(_ int, o *op) (int, int64, error) {
				n, err := countPairs(context.Background(), srv, o.Query.Text)
				return n, 0, err
			},
			first: firstPairs(ops[0].Query.Text),
		}, nil
	}}
}

// lookupFrom is lookup.from: DB.QueryFromContext of Q1–Q8 and Q10 from
// uniformly sampled source nodes; a stratum is a query text.
func lookupFrom() readSpec {
	return readSpec{name: "lookup.from", shards: 1, open: func(cfg *config, fx *fixture) (*readLoad, error) {
		mix := advogato("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q10")
		g := fx.db.Graph()
		nfas := make([]*automaton.NFA, len(mix))
		shares := make([]float64, len(mix))
		for i, q := range mix {
			nfa, err := automaton.Compile(q.expr, g)
			if err != nil {
				return nil, err
			}
			nfas[i], shares[i] = nfa, 1/float64(len(mix))
		}
		r := rand.New(rand.NewSource(cfg.seed))
		ops := make([]op, cfg.lookups)
		seq := make([]int, len(ops))
		for i := range ops {
			s := r.Intn(len(mix))
			src := graph.NodeID(r.Intn(g.NumNodes()))
			o := op{ID: i, Stratum: s, Query: mix[s], Source: g.NodeName(src)}
			for _, t := range nfas[s].EvalFrom(src) {
				o.Want.add(o.Source, g.NodeName(t))
			}
			ops[i], seq[i] = o, i
		}
		load := &readLoad{
			ops: ops, shares: shares, seq: seq,
			top: "pathdb.query_from",
			call: func(_ int, o *op) (int, int64, error) {
				names, err := fx.db.QueryFromContext(context.Background(), o.Query.Text, o.Source)
				return len(names), 0, err
			},
			first: func(db *pathdb.DB) error {
				_, err := db.QueryFromContext(context.Background(), mix[0].Text, g.NodeName(0))
				return err
			},
		}
		for i := range ops {
			o := &ops[i]
			ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
			names, err := fx.db.QueryFromContext(ctx, o.Query.Text, o.Source)
			cancel()
			if err != nil {
				return nil, fmt.Errorf("gate: %s from %s: %w", o.Query.Name, o.Source, err)
			}
			var got expect
			for _, t := range names {
				got.add(o.Source, t)
			}
			if got != o.Want {
				return nil, fmt.Errorf("gate: %s from %s: engine answers %d targets, oracle %d", o.Query.Name, o.Source, got.Count, o.Want.Count)
			}
		}
		return load, nil
	}}
}

// setUp runs build cfg.setups times, keeps the last result and closes
// the others, and returns the median duration: one set-up is a single
// sample of a second-long build, too few for a bound.
func setUp[T any](cfg *config, build func(dir string) (T, error), closeFn func(T) error) (T, float64, error) {
	var kept T
	var durs []float64
	for i := 0; i < cfg.setups; i++ {
		if i > 0 {
			if err := closeFn(kept); err != nil {
				return kept, 0, err
			}
		}
		t0 := time.Now()
		v, err := build(filepath.Join(cfg.work, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return kept, 0, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, seconds(time.Since(t0)))
		kept = v
	}
	return kept, median(durs), nil
}

// closedLoop replays seq cyclically from `clients` goroutines, each
// issuing its next operation when the previous one has returned, until
// the window closes; operations in flight then run to completion. An
// operation fails when it errors (a refusal included) or returns a
// count other than the oracle's.
func closedLoop(cfg *config, l *readLoad) (samples *mixSamples, attempted, failed int, elapsed time.Duration) {
	settleHeap()
	var cursor atomic.Int64
	per := make([]*mixSamples, cfg.clients)
	fails := make([]int, cfg.clients)
	tries := make([]int, cfg.clients)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < cfg.clients; c++ {
		per[c] = newMixSamples(l.shares)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := &l.ops[l.seq[int(cursor.Add(1)-1)%len(l.seq)]]
				t0 := time.Now()
				n, _, err := l.call(c, o)
				d := time.Since(t0)
				tries[c]++
				if err != nil || n != o.Want.Count {
					fails[c]++
					continue
				}
				per[c].add(o.Stratum, d)
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	samples = newMixSamples(l.shares)
	for c := range per {
		samples.merge(per[c])
		attempted += tries[c]
		failed += fails[c]
	}
	return samples, attempted, failed, elapsed
}

// settleHeap collects the garbage of set-up, oracle and gate, so that
// every timed section starts from the same heap whatever ran before it;
// the collector's pacing otherwise differs from run to run.
func settleHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runRead is the untraced run of a read workload.
func runRead(cfg *config, spec readSpec) (*result, error) {
	fx, setupS, err := setUp(cfg,
		func(dir string) (*fixture, error) { return buildFixture(dir, cfg.scale, spec.shards) },
		(*fixture).close)
	if err != nil {
		return nil, err
	}
	load, err := spec.open(cfg, fx)
	if err != nil {
		fx.close()
		return nil, err
	}
	samples, attempted, failed, elapsed := closedLoop(cfg, load)
	if err := load.close(); err != nil {
		return nil, err
	}
	edges := fx.db.Graph().NumEdges()
	if err := fx.close(); err != nil {
		return nil, err
	}

	// recovery_s: a restart of the served files until the first answer.
	settleHeap()
	var recov []float64
	for i := 0; i < cfg.reopens; i++ {
		t0 := time.Now()
		db, err := pathdb.Open(fx.graphPath, fx.indexPath)
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		if err := load.first(db); err != nil {
			return nil, fmt.Errorf("first query after reopen: %w", err)
		}
		recov = append(recov, seconds(time.Since(t0)))
		if err := db.Close(); err != nil {
			return nil, err
		}
	}
	bytes, err := fx.indexBytes()
	if err != nil {
		return nil, err
	}

	n := samples.count()
	res := &result{Workload: spec.name, Clients: cfg.clients, Attempted: attempted, Failed: failed, Dropped: load.dropped, SequenceHash: load.sequenceHash()}
	res.Metrics = []metric{
		{Name: "setup_s", Value: setupS, Unit: "s", N: cfg.setups},
		// Closed loop without think time: each client completes one
		// operation per mean latency of the mix.
		{Name: "qps", Value: float64(cfg.clients) * 1000 / samples.meanMS(), Unit: "1/s", N: n},
		{Name: "p50_ms", Value: samples.quantileMS(0.50), Unit: "ms", N: n},
		{Name: "p95_ms", Value: samples.quantileMS(0.95), Unit: "ms", N: n},
		{Name: "recovery_s", Value: median(recov), Unit: "s", N: len(recov)},
		{Name: "index_bytes_per_edge", Value: float64(bytes) / float64(edges), Unit: "B/edge"},
	}
	res.Info = append([]metric{
		{Name: "failed_ratio", Value: float64(failed) / float64(attempted), Unit: "ratio"},
		{Name: "window_qps", Value: float64(n) / seconds(elapsed), Unit: "1/s", N: n},
	}, runtimeMetrics()...)
	return res, nil
}

// httpFront is an httpserve.Server on a loopback listener.
type httpFront struct {
	srv  *httpserve.Server
	url  string
	done chan error
}

func startHTTP(db *pathdb.DB) (*httpFront, error) {
	srv, err := httpserve.New(db, httpserve.Options{})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &httpFront{srv: srv, url: "http://" + l.Addr().String() + "/query", done: make(chan error, 1)}
	go func() { h.done <- srv.Serve(l) }()
	return h, nil
}

// stop drains the server and waits for its accept loop to return.
func (h *httpFront) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := h.srv.Shutdown(ctx)
	if serr := <-h.done; err == nil && serr != nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// client returns load generator i: its own connection and its own
// X-Client-ID, as independent callers would have.
func (h *httpFront) client(i int) *httpClient {
	return &httpClient{hc: &http.Client{Transport: &http.Transport{}}, url: h.url, id: fmt.Sprintf("bench-%d", i), buf: make([]byte, 64<<10)}
}

// trailerWindow is how much of a stream's end is kept to find the done
// trailer, which is well under 200 bytes.
const trailerWindow = 512

type httpClient struct {
	hc  *http.Client
	url string
	id  string
	buf []byte
}

// query POSTs one query and reads its NDJSON stream to the last byte,
// returning the pair count of the done trailer and the body size. A
// status other than 200 or a stream without a trailer is an error.
func (c *httpClient) query(text string) (pairs int, size int64, err error) {
	body, _ := json.Marshal(map[string]string{"query": text})
	req, err := http.NewRequest("POST", c.url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", c.id)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	// Only the trailer is parsed; of the pair lines just the last few
	// hundred bytes are kept while the stream is drained.
	var tail []byte
	for {
		n, rerr := resp.Body.Read(c.buf)
		size += int64(n)
		if n >= trailerWindow {
			tail = append(tail[:0], c.buf[n-trailerWindow:n]...)
		} else if tail = append(tail, c.buf[:n]...); len(tail) > trailerWindow {
			tail = append(tail[:0], tail[len(tail)-trailerWindow:]...)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return 0, size, rerr
		}
	}
	if resp.StatusCode != http.StatusOK {
		return 0, size, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(tail)))
	}
	last := strings.TrimSpace(string(tail))
	if i := strings.LastIndexByte(last, '\n'); i >= 0 {
		last = last[i+1:]
	}
	var trailer struct {
		Done  bool `json:"done"`
		Pairs int  `json:"pairs"`
	}
	if err := json.Unmarshal([]byte(last), &trailer); err != nil || !trailer.Done {
		return 0, size, fmt.Errorf("stream ended without a done trailer: %q", last)
	}
	return trailer.Pairs, size, nil
}
