// Package bench implements the HARNESS II experiment harness: one
// generator per experiment in DESIGN.md's index, each regenerating
// a figure-scenario or quantified design claim of the paper as a printed
// table. The cmd/hbench binary drives them; the repository-root benchmark
// suite wraps the same workloads in testing.B form.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
	"unicode/utf8"
)

// Table is one experiment's result: labelled rows of formatted cells.
type Table struct {
	ID      string
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table in aligned plain text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// String renders the table to text.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Cell formatting helpers shared by the experiments.

// FmtDur renders a duration with three significant figures.
func FmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// FmtBytes renders a byte count in binary units.
func FmtBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	}
}

// FmtRatio renders a dimensionless factor.
func FmtRatio(r float64) string { return fmt.Sprintf("%.2fx", r) }

// FmtRate renders a throughput in MB/s.
func FmtRate(bytesPerSec float64) string {
	return fmt.Sprintf("%.1fMB/s", bytesPerSec/1e6)
}

// FmtInt renders an integer cell.
func FmtInt(n int) string { return fmt.Sprintf("%d", n) }

// FmtFloat renders a float with two decimals.
func FmtFloat(f float64) string { return fmt.Sprintf("%.2f", f) }
