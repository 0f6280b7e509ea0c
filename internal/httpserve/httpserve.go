// Package httpserve exposes a pathdb database over HTTP — the network
// serving front end of the "life of a regular path query" demonstration
// (paper Section 6), built on the cancellable execution stack and the
// epoch-swapped serving layer.
//
// Endpoints:
//
//	POST /query    {"query": "...", "strategy": "...", "timeout_ms": N}
//	               → NDJSON stream: one {"src","dst"} line per result
//	               pair, flushed batch by batch as operators produce
//	               them (the full answer is never materialized per
//	               request), terminated by a {"done":true,...} summary
//	               line — or an {"error":"..."} line if evaluation
//	               fails or is cut off mid-stream.
//	POST /prepare  {"query": "...", "strategy": "..."}
//	               → {"name":"s1",...}; registers a named statement.
//	POST /execute  {"name": "s1", "timeout_ms": N}
//	               → NDJSON stream, exactly like /query. Statements
//	               store query text, not compiled plans: each execute
//	               parses and plans again on the snapshot current at
//	               that call, so a statement sees every live update.
//	GET  /explain?q=...&strategy=...
//	               → text/plain physical plan.
//	GET  /stats    → JSON: request and error counters,
//	               index statistics, update/tier state, durability
//	               state (WAL size, checkpoint seq, spilled tiers —
//	               all zero for non-durable DBs), HTTP-level counters.
//
// Per-request deadlines (timeout_ms, clamped to Options.MaxTimeout,
// defaulted from Options.DefaultTimeout) and client disconnects cancel
// the in-flight operators through the request context — a runaway
// closure stops within about one batch boundary of the deadline.
// Every request parses and plans its query on its own — nothing is
// cached between requests — so admission control gates every endpoint
// that compiles (/query, /execute, /prepare, /explain): it bounds
// concurrent requests globally and per client (the X-Client-ID header,
// falling back to the remote address), and rejected requests get 429
// without touching the engine.
package httpserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	pathdb "repro"
)

// Options configures New.
type Options struct {
	// Strategy names the default evaluation strategy for requests that
	// do not carry one ("naive", "semiNaive", "minSupport", "minJoin");
	// empty uses the DB's default strategy. A string rather than a
	// pathdb.Strategy because the zero Strategy is a valid strategy
	// (naive) and could not be told apart from "unset".
	Strategy string
	// DefaultTimeout is the per-request execution deadline applied when
	// a request does not carry timeout_ms; 0 means no default deadline.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeout_ms; 0 means no clamp.
	MaxTimeout time.Duration
	// MaxConcurrent bounds in-flight compiling requests across all
	// clients (admission control); 0 uses 64, negative disables the
	// global bound.
	MaxConcurrent int
	// MaxPerClient bounds in-flight compiling requests per client; 0
	// uses 4, negative disables the per-client bound.
	MaxPerClient int
}

// Server serves a pathdb.DB over HTTP. It implements http.Handler and
// is safe for concurrent use. Create one with New, mount it (or call
// ListenAndServe), and call Shutdown to drain in-flight requests before
// closing the DB.
type Server struct {
	db              *pathdb.DB
	srv             *pathdb.Server
	opts            Options
	defaultStrategy pathdb.Strategy
	mux             *http.ServeMux

	gate admission

	hsMu sync.Mutex
	hs   *http.Server

	stmtMu   sync.Mutex
	stmts    map[string]statement
	nextStmt int

	requests atomic.Int64 // all endpoint hits
	rejected atomic.Int64 // requests turned away by admission control
	inFlight atomic.Int64 // executions currently running
	pairsOut atomic.Int64 // result pairs streamed to clients
}

// statement is one registered PREPARE: the query text and strategy,
// deliberately not a compiled plan — each execution plans again on the
// current snapshot, which keeps statements correct across engine epochs.
type statement struct {
	query    string
	strategy pathdb.Strategy
}

// New returns an HTTP front end over db. The serving layer is created
// here via db.Serve. It fails only on an invalid Options.Strategy name.
func New(db *pathdb.DB, opts Options) (*Server, error) {
	defaultStrategy := db.DefaultStrategy()
	if opts.Strategy != "" {
		st, err := pathdb.ParseStrategy(opts.Strategy)
		if err != nil {
			return nil, err
		}
		defaultStrategy = st
	}
	s := &Server{
		db:              db,
		srv:             db.Serve(pathdb.ServeOptions{}),
		opts:            opts,
		defaultStrategy: defaultStrategy,
		mux:             http.NewServeMux(),
		stmts:           map[string]statement{},
	}
	maxGlobal := opts.MaxConcurrent
	if maxGlobal == 0 {
		maxGlobal = 64
	}
	maxPer := opts.MaxPerClient
	if maxPer == 0 {
		maxPer = 4
	}
	s.gate = admission{maxGlobal: maxGlobal, maxPerClient: maxPer, perClient: map[string]int{}}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /prepare", s.handlePrepare)
	s.mux.HandleFunc("POST /execute", s.handleExecute)
	s.mux.HandleFunc("GET /explain", s.handleExplain)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	s.mux.ServeHTTP(w, r)
}

// ListenAndServe serves on addr until Shutdown (which returns
// http.ErrServerClosed here) or a listener error.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve serves on an existing listener until Shutdown (which returns
// http.ErrServerClosed here) or a listener error. Useful for serving on
// an ephemeral port (net.Listen on ":0").
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	return hs.Serve(l)
}

// Shutdown gracefully stops a server started with ListenAndServe: the
// listener closes immediately, in-flight requests (including streaming
// queries) run to completion, and only then does Shutdown return — so
// `defer db.Close()` after it never yanks the index from under a
// request. ctx bounds the drain; when it expires, remaining request
// contexts are cancelled, which stops their operators at the next
// batch boundary.
func (s *Server) Shutdown(ctx context.Context) error {
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}

// admission is the concurrency gate: a global in-flight bound plus a
// per-client bound, both checked before a request compiles anything. It
// is a plain counter table, not a queue — over-limit requests are
// rejected immediately with 429 so clients back off instead of piling
// up.
type admission struct {
	mu           sync.Mutex
	maxGlobal    int
	maxPerClient int
	global       int
	perClient    map[string]int
}

func (a *admission) acquire(client string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.maxGlobal > 0 && a.global >= a.maxGlobal {
		return false
	}
	if a.maxPerClient > 0 && a.perClient[client] >= a.maxPerClient {
		return false
	}
	a.global++
	a.perClient[client]++
	return true
}

func (a *admission) release(client string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.global--
	if n := a.perClient[client] - 1; n > 0 {
		a.perClient[client] = n
	} else {
		delete(a.perClient, client)
	}
}

// admit takes an admission slot for r's client and returns the release
// to defer, or answers 429 with Retry-After and returns false.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	client := clientKey(r)
	if !s.gate.acquire(client) {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorLine{Error: "too many concurrent queries for this client"})
		return nil, false
	}
	return func() { s.gate.release(client) }, true
}

// clientKey identifies the client for per-client admission: the
// X-Client-ID header when present, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// queryRequest is the body of /query, /prepare, and /execute.
type queryRequest struct {
	Query     string `json:"query"`
	Name      string `json:"name"`     // /execute: statement name
	Strategy  string `json:"strategy"` // optional; default from Options
	TimeoutMS int64  `json:"timeout_ms"`
}

// pairLine is one streamed result pair.
type pairLine struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
}

// doneLine terminates a successful stream.
type doneLine struct {
	Done   bool    `json:"done"`
	Pairs  int     `json:"pairs"`
	ExecMS float64 `json:"exec_ms"`
	Epoch  uint64  `json:"epoch"`
}

// errorLine terminates a failed stream (or is the whole body of a
// pre-stream failure).
type errorLine struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorStatus maps an evaluation error to a pre-stream HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	case errors.Is(err, pathdb.ErrIndexClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, pathdb.ErrGraphMismatch):
		return http.StatusInternalServerError // the server's files disagree, not the request
	default:
		return http.StatusBadRequest
	}
}

// strategyFor resolves a request's strategy string, empty meaning the
// server default.
func (s *Server) strategyFor(name string) (pathdb.Strategy, error) {
	if name == "" {
		return s.defaultStrategy, nil
	}
	return pathdb.ParseStrategy(name)
}

// timeoutFor resolves a request's deadline: timeout_ms if given
// (clamped to MaxTimeout), else DefaultTimeout.
func (s *Server) timeoutFor(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.opts.DefaultTimeout
	}
	if s.opts.MaxTimeout > 0 && (d <= 0 || d > s.opts.MaxTimeout) {
		d = s.opts.MaxTimeout
	}
	return d
}

func decodeRequest(r *http.Request) (queryRequest, error) {
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("invalid request body: %w", err)
	}
	return req, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: err.Error()})
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: "missing query"})
		return
	}
	strategy, err := s.strategyFor(req.Strategy)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: err.Error()})
		return
	}
	s.stream(w, r, req.Query, strategy, s.timeoutFor(req.TimeoutMS))
}

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: err.Error()})
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: "missing query"})
		return
	}
	strategy, err := s.strategyFor(req.Strategy)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: err.Error()})
		return
	}
	// Compile now so a statement over a bad query fails at PREPARE
	// time, as a client would expect. The statement itself stores only
	// text: EXECUTE plans again on the snapshot current at its call
	// instead of replaying a plan from an older epoch.
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	_, err = s.srv.ExplainWith(req.Query, strategy)
	release()
	if err != nil {
		writeJSON(w, errorStatus(err), errorLine{Error: err.Error()})
		return
	}
	s.stmtMu.Lock()
	s.nextStmt++
	name := "s" + strconv.Itoa(s.nextStmt)
	s.stmts[name] = statement{query: req.Query, strategy: strategy}
	s.stmtMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{
		"name":     name,
		"query":    req.Query,
		"strategy": strategy.String(),
	})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	req, err := decodeRequest(r)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: err.Error()})
		return
	}
	if req.Name == "" {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: "missing statement name"})
		return
	}
	s.stmtMu.Lock()
	stmt, ok := s.stmts[req.Name]
	s.stmtMu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorLine{Error: fmt.Sprintf("unknown statement %q", req.Name)})
		return
	}
	s.stream(w, r, stmt.query, stmt.strategy, s.timeoutFor(req.TimeoutMS))
}

// stream runs one query and writes its NDJSON response: pair lines
// flushed batch by batch as the operators produce them, then a done
// line — or an error line if the evaluation failed after streaming
// began (the status line is already on the wire by then). Admission
// control and the per-request deadline wrap the whole evaluation.
func (s *Server) stream(w http.ResponseWriter, r *http.Request, query string, strategy pathdb.Strategy, timeout time.Duration) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	// The request context is the cancellation root: a client disconnect
	// cancels it (net/http), and the per-request deadline layers on top.
	// Either way the in-flight operators stop at their next batch
	// boundary.
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	started := false
	var writeErr error
	// One buffer per request holds a batch's lines: a batch costs one
	// Write and one Flush, and a pair costs no allocation (names are
	// escaped straight out of the graph's name table).
	var lines []byte
	st, err := s.srv.StreamPairs(ctx, query, strategy, func(pairs []pathdb.Pair, g *pathdb.Graph) error {
		var e error
		if lines, e = appendPairLines(lines[:0], pairs, g); e != nil {
			return e
		}
		if !started {
			started = true
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
		}
		if _, e = w.Write(lines); e != nil {
			writeErr = e
			return e
		}
		s.pairsOut.Add(int64(len(pairs)))
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if writeErr != nil {
		return // client went away; nothing sensible left to write
	}
	if err != nil {
		if !started {
			writeJSON(w, errorStatus(err), errorLine{Error: err.Error()})
			return
		}
		_ = enc.Encode(errorLine{Error: err.Error()})
		return
	}
	if !started {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	_ = enc.Encode(doneLine{
		Done:   true,
		Pairs:  st.ResultPairs,
		ExecMS: float64(st.ExecTime.Microseconds()) / 1000.0,
		Epoch:  s.srv.Epoch(),
	})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: "missing q parameter"})
		return
	}
	strategy, err := s.strategyFor(r.URL.Query().Get("strategy"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorLine{Error: err.Error()})
		return
	}
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	text, err := s.srv.ExplainWith(q, strategy)
	release()
	if err != nil {
		writeJSON(w, errorStatus(err), errorLine{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, text)
}

// HTTPStats are the front end's own counters, reported under "http" by
// /stats next to the serving-layer and index statistics.
type HTTPStats struct {
	Requests     int64 `json:"requests"`
	Rejected     int64 `json:"rejected"`
	InFlight     int64 `json:"in_flight"`
	PairsStreams int64 `json:"pairs_streamed"`
	Statements   int   `json:"statements"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.stmtMu.Lock()
	nStmts := len(s.stmts)
	s.stmtMu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"serve":      s.srv.Stats(),
		"index":      s.db.IndexStats(),
		"update":     s.db.UpdateStats(),
		"durability": s.db.DurabilityStats(),
		"shards":     s.db.ShardStats(),
		"http": HTTPStats{
			Requests:     s.requests.Load(),
			Rejected:     s.rejected.Load(),
			InFlight:     s.inFlight.Load(),
			PairsStreams: s.pairsOut.Load(),
			Statements:   nStmts,
		},
	})
}
