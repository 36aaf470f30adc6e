// Package stats provides the measurement utilities shared by the benchmark
// harnesses: plain-text/CSV table rendering for reproducing the paper's
// figures, and the distribution distance the engine-agreement tests use.
package stats

import (
	"fmt"
	"strings"
	"time"
)

// Table accumulates rows for a figure/table and renders them as aligned
// plain text or CSV. All harness binaries print their results through Table
// so EXPERIMENTS.md entries can be regenerated mechanically.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v ("%.4g" for floats).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case float32:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			// Round for readability, but never to zero: sub-10us values
			// keep nanosecond precision (lock/backup latencies live there).
			if v >= 10*time.Microsecond {
				row[i] = v.Round(time.Microsecond).String()
			} else {
				row[i] = v.String()
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows reports how many rows have been added.
func (t *Table) NumRows() int { return len(t.rows) }

// String renders the table as aligned plain text.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}

// CSV renders the table in RFC-4180-ish CSV (no quoting needed for our data).
func (t *Table) CSV() string {
	var sb strings.Builder
	sb.WriteString(strings.Join(t.Headers, ","))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		sb.WriteString(strings.Join(row, ","))
		sb.WriteByte('\n')
	}
	return sb.String()
}
