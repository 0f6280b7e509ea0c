package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	pathdb "repro"
	"repro/internal/graph"
	"repro/internal/httpserve"
	"repro/internal/workload"
)

// HTTPPoint is one measured client count of the HTTP serving
// experiment: the same Zipf traffic as the in-process points, but
// through a real listener — JSON encode, NDJSON streaming, and HTTP
// overhead included, so the delta against the in-process QPS is the
// cost of the network front end itself.
type HTTPPoint struct {
	Clients       int     `json:"clients"`
	Ops           int64   `json:"ops"`
	Errors        int64   `json:"errors"`
	Seconds       float64 `json:"seconds"`
	QPS           float64 `json:"qps"`
	P50Millis     float64 `json:"p50_ms"`
	P95Millis     float64 `json:"p95_ms"`
	P99Millis     float64 `json:"p99_ms"`
	PairsStreamed int64   `json:"pairs_streamed"`
}

// measureServeHTTP drives `clients` goroutines of Zipf traffic through
// POST /query on a listening httpserve.Server, each client reading its
// streams to completion. Every client carries its own X-Client-ID so
// per-client admission control does not throttle the harness.
func measureServeHTTP(c ServeConfig, db *pathdb.DB, qs []workload.Query, clients int) (HTTPPoint, error) {
	hsrv, err := httpserve.New(db, httpserve.Options{
		MaxConcurrent: -1,
	})
	if err != nil {
		return HTTPPoint{}, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return HTTPPoint{}, err
	}
	go func() { _ = hsrv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hsrv.Shutdown(ctx)
	}()
	url := "http://" + l.Addr().String() + "/query"

	// One query over the wire per mix entry warms the HTTP client's
	// connection pool before the window.
	warm := &http.Client{}
	for _, q := range qs {
		if _, _, err := httpQuery(warm, url, "warmup", q.Text); err != nil {
			return HTTPPoint{}, fmt.Errorf("bench: http warmup %s: %w", q.Name, err)
		}
	}

	type clientResult struct {
		lats  []time.Duration
		ops   int64
		errs  int64
		pairs int64
	}
	results := make([]clientResult, clients)
	deadline := time.Now().Add(c.Duration)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hc := &http.Client{}
			id := fmt.Sprintf("bench-client-%d", w)
			z := workload.NewZipf(qs, c.ZipfExponent, c.Seed+int64(w)*7919)
			res := &results[w]
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				q := z.Next()
				pairs, ok, err := httpQuery(hc, url, id, q.Text)
				if err != nil || !ok {
					res.errs++
					continue
				}
				res.lats = append(res.lats, time.Since(t0))
				res.ops++
				res.pairs += pairs
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var lats []time.Duration
	pt := HTTPPoint{Clients: clients, Seconds: elapsed.Seconds()}
	for _, r := range results {
		pt.Ops += r.ops
		pt.Errors += r.errs
		pt.PairsStreamed += r.pairs
		lats = append(lats, r.lats...)
	}
	slices.Sort(lats)
	pt.QPS = float64(pt.Ops) / elapsed.Seconds()
	pt.P50Millis = millisAt(lats, 0.50)
	pt.P95Millis = millisAt(lats, 0.95)
	pt.P99Millis = millisAt(lats, 0.99)
	return pt, nil
}

// httpQuery POSTs one query and drains its NDJSON stream, returning the
// pair count confirmed by the done trailer. ok is false when the stream
// ended without one (an in-band error line).
func httpQuery(hc *http.Client, url, clientID, query string) (pairs int64, ok bool, err error) {
	body, _ := json.Marshal(map[string]string{"query": query})
	req, err := http.NewRequest("POST", url, bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", clientID)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last []byte
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, false, err
	}
	var trailer struct {
		Done  bool  `json:"done"`
		Pairs int64 `json:"pairs"`
	}
	if err := json.Unmarshal(last, &trailer); err != nil || !trailer.Done {
		return 0, false, nil
	}
	return trailer.Pairs, true, nil
}

// serveHTTPPoints measures the HTTP section of the serve experiment: a
// pathdb.DB over the same graph (and the same k), driven at the same
// client counts through a live listener.
func serveHTTPPoints(c ServeConfig, g *graph.Graph, k int, qs []workload.Query) ([]HTTPPoint, error) {
	db, err := pathdb.Build(g, pathdb.Options{K: k, HistogramBuckets: c.HistogramBuckets})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	var pts []HTTPPoint
	for _, n := range c.Clients {
		pt, err := measureServeHTTP(c, db, qs, n)
		if err != nil {
			return nil, err
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

// HTTPServeTable renders the HTTP section of a serve report, or nil
// when the report has none.
func HTTPServeTable(rep *ServeReport) *Table {
	if len(rep.HTTP) == 0 {
		return nil
	}
	t := &Table{
		Title:  "Serve over HTTP: POST /query NDJSON streaming, same Zipf mix",
		Header: []string{"clients", "ops", "errors", "QPS", "p50 ms", "p95 ms", "p99 ms", "pairs streamed"},
	}
	for _, p := range rep.HTTP {
		t.AddRow(
			fmt.Sprintf("%d", p.Clients),
			fmt.Sprintf("%d", p.Ops),
			fmt.Sprintf("%d", p.Errors),
			fmt.Sprintf("%.0f", p.QPS),
			fmt.Sprintf("%.3f", p.P50Millis),
			fmt.Sprintf("%.3f", p.P95Millis),
			fmt.Sprintf("%.3f", p.P99Millis),
			fmt.Sprintf("%d", p.PairsStreamed),
		)
	}
	if len(rep.Points) > 0 && len(rep.HTTP) > 0 {
		var inproc, http1 float64
		for _, p := range rep.Points {
			if p.Clients == 1 {
				inproc = p.QPS
				break
			}
		}
		for _, p := range rep.HTTP {
			if p.Clients == 1 {
				http1 = p.QPS
				break
			}
		}
		if inproc > 0 && http1 > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"HTTP front end serves %.0f%% of the in-process QPS at 1 client (streaming encode + transport)",
				100*http1/inproc))
		}
	}
	return t
}
