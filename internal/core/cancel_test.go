package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/pathindex"
	"repro/internal/plan"
	"repro/internal/rpq"
)

// The cancellation tests run a* over workloads big enough that an
// uncancelled evaluation takes on the order of a second (tens of
// millions of pairs), cancel a few milliseconds in, and assert the call
// returns the context error within a bound that is generous enough for
// the race detector but far below the uncancelled runtime. They are
// meant to run under -race.

// cancelBound is how long a cancelled evaluation may take to unwind.
// The design target is one batch boundary (well under 50ms); the
// asserted bound leaves headroom for -race and loaded CI machines while
// staying an order of magnitude below the uncancelled runtime.
const cancelBound = 2 * time.Second

// closureEngine returns an engine whose "a*" evaluation runs over a
// dense random graph: ~14M result pairs.
func closureEngine(t testing.TB) *Engine {
	t.Helper()
	g := randomGraph(rand.New(rand.NewSource(1)), 4000, 12000, []string{"a"})
	return newTestEngine(t, g, 2)
}

// cancelAfter cancels ctx after d and returns a function reporting the
// time elapsed since the cancel actually fired.
func cancelAfter(cancel context.CancelFunc, d time.Duration) func() time.Duration {
	fired := make(chan time.Time, 1)
	go func() {
		time.Sleep(d)
		cancel()
		fired <- time.Now()
	}()
	return func() time.Duration { return time.Since(<-fired) }
}

func TestExecuteContextPreCancelled(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(2)), 30, 90, []string{"a", "b"})
	e := newTestEngine(t, g, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	prep, err := e.Compile(rpq.MustParse("a/b"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.ExecuteContext(ctx); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteContext on cancelled ctx: %v, want Canceled", err)
	}
	if _, err := prep.ExecuteParallelContext(ctx, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteParallelContext on cancelled ctx: %v, want Canceled", err)
	}
	if _, err := e.EvalFromContext(ctx, rpq.MustParse("a*"), 0); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalFromContext on cancelled ctx: %v, want Canceled", err)
	}
	if _, err := e.EvalQueryContext(ctx, "a/b", plan.MinSupport); !errors.Is(err, context.Canceled) {
		t.Errorf("EvalQueryContext on cancelled ctx: %v, want Canceled", err)
	}
	if _, err := prep.StreamContext(ctx, func([]pathindex.Pair) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("StreamContext on cancelled ctx: %v, want Canceled", err)
	}
	// A nil-equivalent run on the same Prepared still works: cancellation
	// must not poison the compiled plan or the engine's pin accounting.
	if res, err := prep.Execute(); err != nil || len(res.Pairs) == 0 {
		t.Fatalf("Execute after cancelled runs: %d pairs, err %v", lenOrZero(res), err)
	}
}

// TestExecuteContextCancelMidFlight is the acceptance check: a huge
// closure query cancelled mid-flight must return context.Canceled
// promptly instead of running to completion.
func TestExecuteContextCancelMidFlight(t *testing.T) {
	e := closureEngine(t)
	prep, err := e.Compile(rpq.MustParse("a*"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sinceCancel := cancelAfter(cancel, 25*time.Millisecond)
	_, err = prep.ExecuteContext(ctx)
	elapsed := sinceCancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-flight: err %v, want Canceled", err)
	}
	if elapsed > cancelBound {
		t.Fatalf("cancelled execution took %v after cancel (bound %v)", elapsed, cancelBound)
	}
	t.Logf("unwound %v after cancel", elapsed)

	// The engine still answers the same query correctly afterwards.
	res, err := prep.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) == 0 {
		t.Fatal("post-cancel execution returned no pairs")
	}
}

func TestExecuteParallelContextCancelMidFlight(t *testing.T) {
	e := closureEngine(t)
	prep, err := e.Compile(rpq.MustParse("a*"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sinceCancel := cancelAfter(cancel, 25*time.Millisecond)
	_, err = prep.ExecuteParallelContext(ctx, 4)
	elapsed := sinceCancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("parallel cancelled mid-flight: err %v, want Canceled", err)
	}
	if elapsed > cancelBound {
		t.Fatalf("cancelled parallel execution took %v after cancel (bound %v)", elapsed, cancelBound)
	}
}

func TestStreamContextCancelMidFlight(t *testing.T) {
	e := closureEngine(t)
	prep, err := e.Compile(rpq.MustParse("a*"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	// Streaming into a no-op sink can finish the whole closure in tens of
	// milliseconds, so the cancel fires from the sink, mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	batches := 0
	var cancelled time.Time
	st, err := prep.StreamContext(ctx, func(batch []pathindex.Pair) error {
		if batches++; batches == 3 {
			cancel()
			cancelled = time.Now()
		}
		return nil
	})
	elapsed := time.Since(cancelled)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream cancelled mid-flight: err %v, want Canceled", err)
	}
	if elapsed > cancelBound {
		t.Fatalf("cancelled stream took %v after cancel (bound %v)", elapsed, cancelBound)
	}
	// The stats must reflect only what was actually delivered — a
	// cancelled stream is a partial answer, not a full one.
	if st.ResultPairs >= 14000000 {
		t.Errorf("cancelled stream claims %d delivered pairs", st.ResultPairs)
	}
	t.Logf("delivered %d batches (%d pairs) before unwinding %v after cancel", batches, st.ResultPairs, elapsed)
}

func TestStreamContextAbortsOnCallbackError(t *testing.T) {
	e := closureEngine(t)
	prep, err := e.Compile(rpq.MustParse("a*"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := errors.New("client went away")
	calls := 0
	_, err = prep.StreamContext(context.Background(), func(batch []pathindex.Pair) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("stream with failing callback: err %v, want sentinel", err)
	}
	if calls != 3 {
		t.Fatalf("callback ran %d times after returning an error at call 3", calls)
	}
}

func TestEvalFromContextCancelMidFlight(t *testing.T) {
	// On a 400k-node chain the single-source closure drains a 400k-pair
	// body scan (a cancellation point every batch), condenses the chain
	// and emits 400k targets: ~60ms uncancelled without -race on a
	// 2-core x86-64 host, so the cancel lands mid-flight.
	g := graph.New()
	for i := 0; i < 400000; i++ {
		g.AddEdge(fmt.Sprintf("n%d", i), "a", fmt.Sprintf("n%d", i+1))
	}
	g.Freeze()
	e := newTestEngine(t, g, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sinceCancel := cancelAfter(cancel, 10*time.Millisecond)
	_, err := e.EvalFromContext(ctx, rpq.MustParse("a*"), 0)
	elapsed := sinceCancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EvalFrom cancelled mid-flight: err %v, want Canceled", err)
	}
	if elapsed > cancelBound {
		t.Fatalf("cancelled EvalFrom took %v after cancel (bound %v)", elapsed, cancelBound)
	}
}

func TestExecuteContextDeadline(t *testing.T) {
	e := closureEngine(t)
	prep, err := e.Compile(rpq.MustParse("a*"), plan.MinSupport)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = prep.ExecuteContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline run: err %v, want DeadlineExceeded", err)
	}
	if el := time.Since(t0); el > 25*time.Millisecond+cancelBound {
		t.Fatalf("deadline run took %v", el)
	}
}

func lenOrZero(r *Result) int {
	if r == nil {
		return 0
	}
	return len(r.Pairs)
}
