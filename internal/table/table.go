// Package table renders the ASCII tables and series the experiment harness
// prints: fixed set of columns, right-aligned numeric cells, a separator
// under the header — the same rows/series layout as the paper's tables and
// figures.
package table

import (
	"fmt"
	"strings"
)

// Table accumulates rows of string cells under a header.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// New creates a table with the given title and column headers.
func New(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Seconds formats a duration in seconds with an adaptive unit.
func Seconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-3:
		return fmt.Sprintf("%.1f us", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2f ms", s*1e3)
	case s < 100:
		return fmt.Sprintf("%.3f s", s)
	default:
		return fmt.Sprintf("%.1f s", s)
	}
}

// GFLOPS formats a rate in GFLOPS.
func GFLOPS(g float64) string { return fmt.Sprintf("%.1f", g) }

// Count formats an integer with thousands separators.
func Count(n int64) string {
	s := fmt.Sprint(n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
