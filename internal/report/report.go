// Package report renders experiment results as aligned ASCII tables and
// CSV — the output layer for plan reports, the CLIs and the examples.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of cells. The first header names the row key.
type Table struct {
	Title   string
	Note    string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row; it panics when the arity does not match the
// headers, which is always a construction bug in the experiment code.
func (t *Table) AddRow(cells ...string) {
	if len(t.Headers) > 0 && len(cells) != len(t.Headers) {
		panic(fmt.Sprintf("report: row has %d cells, table %q has %d columns",
			len(cells), t.Title, len(t.Headers)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteASCII renders the table with aligned columns.
func (t *Table) WriteASCII(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
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
	writeRow(t.Headers)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders the table as CSV (headers first, title omitted).
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Headers); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// String renders ASCII into a string.
func (t *Table) String() string {
	var b strings.Builder
	t.WriteASCII(&b)
	return b.String()
}

// FormatCount renders large counts compactly (12.3k, 4.5M).
func FormatCount(n int64) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fk", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// FormatPct renders a fraction as a percentage.
func FormatPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
