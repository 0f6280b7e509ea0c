package httpserve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	pathdb "repro"
)

// smallDB returns a tiny two-label database for functional tests.
func smallDB(t *testing.T) *pathdb.DB {
	t.Helper()
	g := pathdb.NewGraph()
	g.AddEdge("ada", "knows", "zoe")
	g.AddEdge("zoe", "knows", "bob")
	g.AddEdge("bob", "worksFor", "ada")
	db, err := pathdb.Build(g, pathdb.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// hugeDB caches one database whose "a*" answer is tens of millions of
// pairs (seconds of streaming), the workload behind the streaming,
// deadline, admission, and shutdown tests.
var (
	hugeOnce sync.Once
	hugeD    *pathdb.DB
	hugeErr  error
)

func hugeDB(t *testing.T) *pathdb.DB {
	t.Helper()
	hugeOnce.Do(func() {
		r := rand.New(rand.NewSource(1))
		g := pathdb.NewGraph()
		const nodes = 4000
		name := func(n int) string { return fmt.Sprintf("n%d", n) }
		for e := 0; e < 3*nodes; e++ {
			g.AddEdge(name(r.Intn(nodes)), "a", name(r.Intn(nodes)))
		}
		hugeD, hugeErr = pathdb.Build(g, pathdb.Options{K: 2})
	})
	if hugeErr != nil {
		t.Fatal(hugeErr)
	}
	return hugeD
}

func newServer(t *testing.T, db *pathdb.DB, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readStream consumes an NDJSON response, returning the pair lines and
// the final line decoded as a map.
func readStream(t *testing.T, body io.Reader) (pairs []pairLine, last map[string]any) {
	t.Helper()
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var lastRaw []byte
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var p pairLine
		if err := json.Unmarshal(line, &p); err == nil && p.Src != "" {
			pairs = append(pairs, p)
		}
		lastRaw = append(lastRaw[:0], line...)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if err := json.Unmarshal(lastRaw, &last); err != nil {
		t.Fatalf("last line %q is not JSON: %v", lastRaw, err)
	}
	return pairs, last
}

func TestQueryStreamsNDJSON(t *testing.T) {
	_, ts := newServer(t, smallDB(t), Options{})
	resp := postQuery(t, ts.URL, `{"query": "knows/worksFor"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	pairs, last := readStream(t, resp.Body)
	if len(pairs) != 1 || pairs[0] != (pairLine{Src: "zoe", Dst: "ada"}) {
		t.Fatalf("pairs %v, want [{zoe ada}]", pairs)
	}
	if last["done"] != true || last["pairs"] != float64(1) {
		t.Fatalf("trailer %v", last)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newServer(t, smallDB(t), Options{})
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"query": "a{3"}`, http.StatusBadRequest},                   // parse error
		{`{}`, http.StatusBadRequest},                                 // missing query
		{`{"query": "a", "strategy": "warp"}`, http.StatusBadRequest}, // bad strategy
		{`not json`, http.StatusBadRequest},
	} {
		resp := postQuery(t, ts.URL, tc.body)
		var e errorLine
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: decoding error body: %v", tc.body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d", tc.body, resp.StatusCode, tc.status)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", tc.body)
		}
	}
}

// TestStreamsBeforeComplete is the acceptance check: the first result
// pairs reach the client while the query is still running — the server
// never materializes the full answer.
func TestStreamsBeforeComplete(t *testing.T) {
	s, ts := newServer(t, hugeDB(t), Options{})
	resp := postQuery(t, ts.URL, `{"query": "a*"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// One pair line is enough: the full answer is tens of millions of
	// pairs (hundreds of MB of NDJSON), far beyond what the transport
	// could buffer, so once a line is readable here the query must still
	// be executing server-side.
	line, err := bufio.NewReader(resp.Body).ReadString('\n')
	if err != nil {
		t.Fatalf("reading first line: %v", err)
	}
	var p pairLine
	if err := json.Unmarshal([]byte(line), &p); err != nil || p.Src == "" {
		t.Fatalf("first line %q is not a pair", line)
	}
	if got := s.inFlight.Load(); got != 1 {
		t.Fatalf("in-flight executions after first streamed pair: %d, want 1", got)
	}
	// Abandon the stream: the disconnect cancels the request context and
	// the operators unwind instead of computing the remaining pairs.
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for s.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("query still in flight 10s after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDeadlineCancelsQuery: a timeout_ms far below the query's runtime
// must cut the evaluation off — as a 408 if nothing was streamed yet,
// or as an in-band error line mid-stream.
func TestDeadlineCancelsQuery(t *testing.T) {
	_, ts := newServer(t, hugeDB(t), Options{})
	t0 := time.Now()
	resp := postQuery(t, ts.URL, `{"query": "a*", "timeout_ms": 30}`)
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusRequestTimeout:
		// Deadline fired before the first batch.
	case http.StatusOK:
		_, last := readStream(t, resp.Body)
		msg, _ := last["error"].(string)
		if !strings.Contains(msg, "deadline") {
			t.Fatalf("stream ended with %v, want a deadline error line", last)
		}
	default:
		t.Fatalf("status %d", resp.StatusCode)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("deadline-exceeded request took %v end to end", el)
	}
}

// TestMaxTimeoutClamp: a request asking for more than MaxTimeout gets
// clamped, and a request asking for nothing gets DefaultTimeout.
func TestMaxTimeoutClamp(t *testing.T) {
	_, ts := newServer(t, hugeDB(t), Options{DefaultTimeout: 30 * time.Millisecond, MaxTimeout: 50 * time.Millisecond})
	for _, body := range []string{
		`{"query": "a*"}`,                       // default deadline applies
		`{"query": "a*", "timeout_ms": 600000}`, // clamped to MaxTimeout
	} {
		resp := postQuery(t, ts.URL, body)
		if resp.StatusCode == http.StatusOK {
			_, last := readStream(t, resp.Body)
			if msg, _ := last["error"].(string); !strings.Contains(msg, "deadline") {
				t.Fatalf("%s: stream ended with %v, want a deadline error", body, last)
			}
		} else if resp.StatusCode != http.StatusRequestTimeout {
			t.Fatalf("%s: status %d", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestPrepareExecuteAcrossEpochs(t *testing.T) {
	db := smallDB(t)
	_, ts := newServer(t, db, Options{})

	resp, err := http.Post(ts.URL+"/prepare", "application/json", strings.NewReader(`{"query": "knows|likes"}`))
	if err != nil {
		t.Fatal(err)
	}
	var prep map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&prep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || prep["name"] == "" {
		t.Fatalf("prepare: status %d, body %v", resp.StatusCode, prep)
	}

	execute := func() (int, uint64) {
		resp, err := http.Post(ts.URL+"/execute", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name": %q}`, prep["name"])))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("execute: status %d", resp.StatusCode)
		}
		pairs, last := readStream(t, resp.Body)
		if last["done"] != true {
			t.Fatalf("execute stream ended with %v", last)
		}
		return len(pairs), uint64(last["epoch"].(float64))
	}

	n1, e1 := execute()
	if n1 != 2 {
		t.Fatalf("before update: %d pairs, want 2", n1)
	}
	// The update introduces the "likes" label, which the plan compiled at
	// the old epoch dropped as unknown: the statement must recompile.
	if err := db.ApplyBatch([]pathdb.LabeledEdge{{Src: "ada", Label: "likes", Dst: "bob"}}); err != nil {
		t.Fatal(err)
	}
	n2, e2 := execute()
	if n2 != 3 {
		t.Fatalf("after update: %d pairs, want 3 (statement replayed a stale plan)", n2)
	}
	// The batch advances the epoch at least once (auto-compaction may add
	// another bump on this tiny index).
	if e2 <= e1 {
		t.Fatalf("epochs %d -> %d across one batch", e1, e2)
	}

	// Unknown statements are a 404, not a crash.
	resp, err = http.Post(ts.URL+"/execute", "application/json", strings.NewReader(`{"name": "s999"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown statement: status %d, want 404", resp.StatusCode)
	}
}

func TestExplain(t *testing.T) {
	_, ts := newServer(t, smallDB(t), Options{})
	resp, err := http.Get(ts.URL + "/explain?q=knows/worksFor")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(resp.Header.Get("Content-Type"), "text/plain") {
		t.Errorf("Content-Type %q", resp.Header.Get("Content-Type"))
	}
	if len(body) == 0 {
		t.Error("empty plan text")
	}
	resp, err = http.Get(ts.URL + "/explain?q=a{3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query explain: status %d, want 400", resp.StatusCode)
	}
}

// TestAdmissionControl: with MaxPerClient=1, a second concurrent query
// from the same client is rejected with 429 + Retry-After while the
// first still streams; a different client is unaffected.
// TestAdmissionControl: while one client's query streams, a second
// request from that client is turned away with 429 on every endpoint
// that compiles — /query, /prepare and /explain — and other clients are
// still served.
func TestAdmissionControl(t *testing.T) {
	s, ts := newServer(t, hugeDB(t), Options{MaxPerClient: 1})

	req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(`{"query": "a*"}`))
	req.Header.Set("X-Client-ID", "c1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("first query never streamed: %v", err)
	}

	second := []struct {
		name string
		req  func() *http.Request
	}{
		{"query", func() *http.Request {
			r, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(`{"query": "a/a"}`))
			return r
		}},
		{"prepare", func() *http.Request {
			r, _ := http.NewRequest("POST", ts.URL+"/prepare", strings.NewReader(`{"query": "a/a"}`))
			return r
		}},
		{"explain", func() *http.Request {
			r, _ := http.NewRequest("GET", ts.URL+"/explain?q=a/a", nil)
			return r
		}},
	}
	status := func(req *http.Request, client string) int {
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	for _, tc := range second {
		if got := status(tc.req(), "c1"); got != http.StatusTooManyRequests {
			t.Errorf("same-client concurrent %s: status %d, want 429", tc.name, got)
		}
		if got := status(tc.req(), "c2"); got != http.StatusOK {
			t.Errorf("other-client %s: status %d, want 200", tc.name, got)
		}
	}
	if got, want := s.rejected.Load(), int64(len(second)); got != want {
		t.Errorf("rejected counter %d, want %d", got, want)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts := newServer(t, smallDB(t), Options{})
	resp := postQuery(t, ts.URL, `{"query": "knows"}`)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"serve", "index", "update", "durability", "http"} {
		if _, ok := st[section]; !ok {
			t.Errorf("stats missing %q section", section)
		}
	}
	var hs HTTPStats
	if err := json.Unmarshal(st["http"], &hs); err != nil {
		t.Fatal(err)
	}
	if hs.Requests < 2 || hs.PairsStreams < 2 {
		t.Errorf("http counters %+v want >=2 requests and >=2 streamed pairs", hs)
	}
}

// TestGracefulShutdown: Shutdown closes the listener immediately but
// waits for an in-flight streaming query; the drain bound cancels the
// request context, so even an abandoned stream cannot hold Shutdown
// past its ctx.
func TestGracefulShutdown(t *testing.T) {
	s, err := New(hugeDB(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()
	url := "http://" + l.Addr().String()

	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(`{"query": "a*"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	// While the stream is held open, Shutdown drains: new connections are
	// refused but the in-flight request lives on.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a stream still open", err)
	case <-time.After(200 * time.Millisecond):
	}
	if _, err := http.Get(url + "/stats"); err == nil {
		t.Error("new connection accepted during shutdown drain")
	}
	// Release the stream; Shutdown must now complete well within its ctx.
	resp.Body.Close()
	select {
	case <-shutdownDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not finish after the last stream closed")
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}
