// Package results renders experiment measurements as machine-readable
// tables for plotting and downstream analysis. A Table is an ordered list
// of named columns plus string rows; WriteCSV emits it as RFC 4180 CSV
// (header row first). All value formatting goes through the helpers in this
// package, which are locale-free and deterministic — two runs that measure
// identical numbers serialize to identical bytes, which is what lets the
// sweep cache promise byte-identical warm re-runs.
//
// The package is shared by internal/scenario (burst-suite cell and
// timeline dumps) and internal/slo (search probe dumps); docs/formats.md
// documents the concrete schemas. Latency and LatencyCoarse render
// latencies for the text reports of those packages and of internal/fleet
// and internal/churn.
package results

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"essdsim/internal/sim"
)

// Table is an ordered set of columns and rows. Rows must match the column
// count; AddRow enforces it.
type Table struct {
	Name    string
	Columns []string
	Rows    [][]string
}

// NewTable returns an empty table with the given column order.
func NewTable(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: columns}
}

// AddRow appends one row. It panics when the cell count does not match the
// column count — a programming error in the table builder, not user input.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("results: table %q row has %d cells, want %d",
			t.Name, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// WriteCSV emits the table as CSV: one header row of column names, then
// the data rows.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Float formats a float64 with the shortest representation that
// round-trips, the same encoding encoding/json uses.
func Float(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Int formats a signed integer.
func Int(v int64) string { return strconv.FormatInt(v, 10) }

// Uint formats an unsigned integer.
func Uint(v uint64) string { return strconv.FormatUint(v, 10) }

// Bool formats a boolean as "true" or "false".
func Bool(b bool) string { return strconv.FormatBool(b) }

// Seconds formats a duration as fractional seconds. Negative durations
// (the "never"/"not applicable" sentinels) format as -1.
func Seconds(d sim.Duration) string {
	if d < 0 {
		return "-1"
	}
	return Float(d.Seconds())
}

// Millis formats a duration as fractional milliseconds, -1 for negative
// sentinels.
func Millis(d sim.Duration) string {
	if d < 0 {
		return "-1"
	}
	return Float(d.Seconds() * 1e3)
}

// Latency renders a latency for a text report: "-" when not positive,
// whole µs under 1 ms, ms with two decimals under 1 s, else seconds.
func Latency(d sim.Duration) string {
	switch {
	case d <= 0:
		return "-"
	case d < sim.Millisecond:
		return fmt.Sprintf("%.0fµs", d.Seconds()*1e6)
	case d < sim.Second:
		return fmt.Sprintf("%.2fms", d.Seconds()*1e3)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// LatencyCoarse renders a latency compactly: "-" for the negative
// sentinels, truncated µs under 1 ms, ms with one decimal otherwise.
func LatencyCoarse(d sim.Duration) string {
	switch {
	case d < 0:
		return "-"
	case d < sim.Millisecond:
		return fmt.Sprintf("%dµs", int64(d)/1000)
	default:
		return fmt.Sprintf("%.1fms", d.Seconds()*1e3)
	}
}
