package httpserve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	pathdb "repro"
	"repro/internal/graph"
)

// hostileNames are node names that need every kind of escape the wire
// format has: quote, backslash, the HTML-sensitive bytes, the short
// control escapes, a \u00XX control byte, DEL (not escaped), the JS line
// separators, multi-byte runes, and invalid UTF-8 in each position.
var hostileNames = []string{
	"plain", "", `say "hi"`, `back\slash`, "<script>&amp;</script>", "line\nbreak\r\n", "tab\there",
	"bell\x07", "\b\f", "\x00\x1f\x7f", "caf\u00e9 \u4e16\u754c \U0001F600", "sep\u2028and\u2029",
	"\xff", "bad\xc3", "\xe2\x80", "a\xf0\x9f\x98b", "\xed\xa0\x80", "\xc0\xafz",
}

// hostileDB is a ring over hostileNames: each name has a "next" edge to
// the following one.
func hostileDB(t *testing.T) *pathdb.DB {
	t.Helper()
	g := pathdb.NewGraph()
	for i, name := range hostileNames {
		g.AddEdge(name, "next", hostileNames[(i+1)%len(hostileNames)])
	}
	db, err := pathdb.Build(g, pathdb.Options{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// FuzzPairLine holds the hand-written encoder to encoding/json, byte for
// byte, for arbitrary names.
func FuzzPairLine(f *testing.F) {
	for i, s := range hostileNames {
		f.Add([]byte(s), []byte(hostileNames[len(hostileNames)-1-i]))
	}
	f.Fuzz(func(t *testing.T, src, dst []byte) {
		want, err := json.Marshal(pairLine{Src: string(src), Dst: string(dst)})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := appendPairLine(nil, string(src), string(dst)); !bytes.Equal(got, want) {
			t.Fatalf("src %q dst %q:\n got %s\nwant %s", src, dst, got, want)
		}
	})
}

// TestStreamEscapesHostileNames serves a graph whose node names need
// escaping and requires every streamed line to be valid JSON that
// decodes to the names encoding/json would have sent (invalid UTF-8
// arrives as U+FFFD, one per bad byte).
func TestStreamEscapesHostileNames(t *testing.T) {
	want := map[pairLine]bool{}
	for i, name := range hostileNames {
		next := hostileNames[(i+1)%len(hostileNames)]
		want[pairLine{Src: string([]rune(name)), Dst: string([]rune(next))}] = true
	}
	_, ts := newServer(t, hostileDB(t), Options{})
	resp := postQuery(t, ts.URL, `{"query": "next"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	got := map[pairLine]bool{}
	sc := bufio.NewScanner(resp.Body)
	done := false
	for sc.Scan() {
		var line struct {
			pairLine
			Done bool `json:"done"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %q is not JSON: %v", sc.Bytes(), err)
		}
		if done = line.Done; !done {
			got[line.pairLine] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("stream ended without a done line")
	}
	if len(got) != len(want) {
		t.Fatalf("%d distinct pairs streamed, want %d", len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Errorf("pair %q -> %q missing from the stream", p.Src, p.Dst)
		}
	}
}

// TestBatchEncodeDoesNotAllocate is the allocation guard of the wire
// path: once the request's line buffer has grown to a batch, encoding a
// batch — name lookup and escaping included — allocates nothing, however
// many pairs it holds.
func TestBatchEncodeDoesNotAllocate(t *testing.T) {
	db := hostileDB(t)
	res, err := db.Query("next")
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]pathdb.Pair, 0, 1024)
	for len(batch) < cap(batch) {
		batch = append(batch, res.Pairs[len(batch)%len(res.Pairs)])
	}
	lines, err := appendPairLines(nil, batch, db.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		lines, _ = appendPairLines(lines[:0], batch, db.Graph())
	}); allocs != 0 {
		t.Errorf("encoding a %d-pair batch allocates %.0f times, want 0", len(batch), allocs)
	}
}

// TestPairLinesOutsideNodeTable: a pair the snapshot's graph has no name
// for (the index was built from another graph) ends the batch with
// ErrGraphMismatch — a 500, not a panic — keeping the lines before it.
func TestPairLinesOutsideNodeTable(t *testing.T) {
	g := hostileDB(t).Graph()
	batch := []pathdb.Pair{{Src: 0, Dst: 1}, {Src: 1, Dst: graph.NodeID(g.NumNodes())}}
	lines, err := appendPairLines(nil, batch, g)
	if !errors.Is(err, pathdb.ErrGraphMismatch) {
		t.Fatalf("appendPairLines = %v, want ErrGraphMismatch", err)
	}
	if want := appendPairLine(nil, g.NodeName(0), g.NodeName(1)); !bytes.Equal(lines, want) {
		t.Fatalf("lines before the bad pair: %q, want %q", lines, want)
	}
	if got := errorStatus(err); got != http.StatusInternalServerError {
		t.Fatalf("errorStatus(ErrGraphMismatch) = %d", got)
	}
}
