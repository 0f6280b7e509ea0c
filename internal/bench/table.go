// Package bench contains the experiment harness that regenerates every
// table of the paper's evaluation (Figure 2, the Section 6 Datalog
// comparison) and this reproduction's Ext-1..Ext-4 experiments. cmd/bench
// exposes it as a CLI; serving, update and shard load is measured by the
// separate benchmark/ module.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Table is an aligned text table with a title and optional footnotes.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ms renders a duration in milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000.0)
}

// median returns the median of a non-empty duration sample.
func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2]
}

// timeIt runs fn `runs` times and returns the median duration.
func timeIt(runs int, fn func() error) (time.Duration, error) {
	if runs < 1 {
		runs = 1
	}
	samples := make([]time.Duration, 0, runs)
	for i := 0; i < runs; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(t0))
	}
	return median(samples), nil
}
