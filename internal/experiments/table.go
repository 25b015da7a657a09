// Package experiments regenerates every table and figure of the paper's
// evaluation (as reconstructed in DESIGN.md §4). Each experiment is a
// named runner that builds its workload, executes the engine and the
// baselines, and prints the same rows or series the paper reports. The
// scan-referenced tables are rows of data over two drivers (driver.go):
// compareTable runs one scan-vs-zombie comparison per row, and
// variantTable runs zombie variants against one scan reference per row.
// cmd/zombie-bench runs them at full scale; the repo-root benchmarks run
// them at reduced scale inside testing.B.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed after the table (assumptions, targets).
	Notes []string
}

// AddRow appends a row; it panics when the width disagrees with the
// header, which would mean a harness bug.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Header) {
		panic(fmt.Sprintf("experiments: table %s row has %d cells, header has %d", t.ID, len(cells), len(t.Header)))
	}
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", t.ID, t.Title); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	rule := make([]string, len(t.Header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(rule)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// f renders a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.3f", v) }

// d renders an int for table cells.
func d(v int) string { return fmt.Sprintf("%d", v) }

// spd renders a speedup factor.
func spd(v float64) string { return fmt.Sprintf("%.2fx", v) }
