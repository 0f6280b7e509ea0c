package pathindex

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// The corrupt-file tests assert one property of the index file reader:
// any truncated or mutated index file produces a descriptive error —
// never a panic, never a silently wrong index. Each case runs under a
// helper that turns panics into test failures so a regression reads as
// "loader panicked", not as a crashed test binary.

func mustNotPanic(t *testing.T, name string, fn func() error) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: loader panicked: %v", name, r)
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// FuzzOpenV3 feeds arbitrary bytes to the v3 parser, seeded with small
// built images. Whatever the input, parseV3 returns an error or an index
// whose every run decodes — through the verifying decodeAll — to an error
// or to exactly its directory count of strictly ascending pairs. It never
// panics.
func FuzzOpenV3(f *testing.F) {
	g := randomGraph(rand.New(rand.NewSource(55)), 12, 30, 2)
	for k := 1; k <= 2; k++ {
		ix, err := Build(g, k, BuildOptions{})
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteV3To(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := parseV3(data, g)
		if err != nil {
			return
		}
		for pid := range c.runs {
			rel, err := c.runs[pid].decodeAll(make([]Packed, 0, c.counts[pid]))
			if err != nil {
				continue
			}
			if len(rel) != c.counts[pid] {
				t.Fatalf("path %d decodes to %d pairs, directory claims %d", pid, len(rel), c.counts[pid])
			}
			for i := 1; i < len(rel); i++ {
				if rel[i] <= rel[i-1] {
					t.Fatalf("path %d not strictly ascending at pair %d", pid, i)
				}
			}
		}
	})
}
