// Package stats provides the experiment output machinery: ordered tables
// emitted as CSV (the paper pipeline's stats_dict.csv analog) or aligned
// text.
package stats

import (
	"fmt"
	"io"
	"strings"
)

// Table is an ordered collection of rows with fixed columns.
type Table struct {
	name string
	cols []string
	rows [][]string
}

// NewTable creates a table with the given name and column order.
func NewTable(name string, cols ...string) *Table {
	return &Table{name: name, cols: cols}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Add appends a row; values are formatted with %v (floats get %.4g).
func (t *Table) Add(vals ...any) {
	if len(vals) != len(t.cols) {
		panic(fmt.Sprintf("stats: row has %d values, table %q has %d columns", len(vals), t.name, len(t.cols)))
	}
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", x)
		case float32:
			row[i] = fmt.Sprintf("%.4g", x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.rows = append(t.rows, row)
}

// Cell returns the value at (row, col name), or "" if absent.
func (t *Table) Cell(row int, col string) string {
	for i, c := range t.cols {
		if c == col {
			if row < len(t.rows) {
				return t.rows[row][i]
			}
		}
	}
	return ""
}

// WriteCSV emits the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.cols, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		quoted := make([]string, len(row))
		for i, cell := range row {
			if strings.ContainsAny(cell, ",\"\n") {
				cell = "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
			}
			quoted[i] = cell
		}
		if _, err := fmt.Fprintln(w, strings.Join(quoted, ",")); err != nil {
			return err
		}
	}
	return nil
}

// String renders an aligned text table (for terminal reports).
func (t *Table) String() string {
	width := make([]int, len(t.cols))
	for i, c := range t.cols {
		width[i] = len(c)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.name)
	line := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", width[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	line(t.cols)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}
