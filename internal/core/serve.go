package core

import (
	"sync/atomic"

	"repro/internal/plan"
	"repro/internal/rpq"
)

// EngineSource supplies the engine snapshot a request should run
// against. A bare *Engine is its own (static) source; pathdb.DB supplies
// a dynamic source backed by an atomic pointer, so every request picks
// up the latest ApplyBatch/Compact snapshot while in-flight requests
// keep the snapshot they started with.
type EngineSource interface {
	CurrentEngine() *Engine
}

// CurrentEngine implements EngineSource: a plain engine serves itself.
func (e *Engine) CurrentEngine() *Engine { return e }

// EngineSourceFunc adapts a function to the EngineSource interface.
type EngineSourceFunc func() *Engine

// CurrentEngine implements EngineSource.
func (f EngineSourceFunc) CurrentEngine() *Engine { return f() }

// ServeOptions configures Engine.Serve / NewServer. It has no fields;
// it stays so that existing ServeOptions{} literals keep compiling.
type ServeOptions struct{}

// Server is the engine's concurrent query-serving front end: a
// thread-safe facade over an EngineSource that counts requests and
// errors. Every request runs parse → prepare → execute on its own: it
// resolves the engine once from the source and parses and compiles
// against that snapshot. Nothing is kept between requests, so a plan
// never outlives the snapshot it was compiled for, and a request after
// an update sees every label the update introduced. All methods are
// safe for concurrent use.
type Server struct {
	src EngineSource

	requests atomic.Int64 // all Prepare/Query entries
	errors   atomic.Int64 // requests that failed to parse, rewrite or plan
}

// Serve returns a concurrent serving front end over this engine as a
// static source.
func (e *Engine) Serve(opts ServeOptions) *Server {
	return NewServer(e, opts)
}

// NewServer returns a serving front end over an engine source. Sources
// that swap engines (pathdb.DB under ApplyBatch/Compact) make every new
// request observe the latest snapshot.
func NewServer(src EngineSource, _ ServeOptions) *Server {
	return &Server{src: src}
}

// Engine returns the source's current engine snapshot.
func (s *Server) Engine() *Engine { return s.src.CurrentEngine() }

// Prepare parses query and compiles it against the snapshot current at
// this call. The returned Prepared may be executed concurrently; it is
// bound to that snapshot.
func (s *Server) Prepare(query string, strategy plan.Strategy) (*Prepared, error) {
	s.requests.Add(1)
	expr, err := rpq.Parse(query)
	if err == nil {
		var prep *Prepared
		if prep, err = s.src.CurrentEngine().Compile(expr, strategy); err == nil {
			return prep, nil
		}
	}
	s.errors.Add(1)
	return nil, err
}

// Query prepares and executes a textual query.
func (s *Server) Query(query string, strategy plan.Strategy) (*Result, error) {
	prep, err := s.Prepare(query, strategy)
	if err != nil {
		return nil, err
	}
	return prep.Execute()
}

// ServeStats describes a server's request traffic.
type ServeStats struct {
	// Requests counts Prepare/Query entries.
	Requests int64
	// Errors counts requests that failed before execution.
	Errors int64
}

// HitRate is the share of requests served from a plan cache. The server
// keeps none, so it is always 0.
func (ServeStats) HitRate() float64 { return 0 }

// Stats returns a snapshot of the server's counters. Errors is loaded
// before Requests so a concurrent request cannot make it exceed
// Requests in the snapshot.
func (s *Server) Stats() ServeStats {
	errs := s.errors.Load()
	return ServeStats{Requests: s.requests.Load(), Errors: errs}
}
