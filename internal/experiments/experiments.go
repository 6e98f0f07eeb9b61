// Package experiments regenerates every table and figure of the paper's
// evaluation (§4). Each experiment is a named function producing a Table
// whose rows mirror the series the paper plots:
//
//	table1  — scheme feature comparison, measured (Table 1)
//	table2  — workload characteristics (Table 2)
//	fig1    — handprint resemblance detection vs handprint size (Fig. 1)
//	fig4a   — chunking/fingerprinting throughput vs #streams (Fig. 4a)
//	fig4b   — parallel similarity-index lookup vs #locks (Fig. 4b)
//	fig5a   — dedup efficiency vs chunk size, SC vs CDC (Fig. 5a)
//	fig5b   — normalized DR vs sampling rate x super-chunk size (Fig. 5b)
//	fig6    — cluster DR (normalized) vs handprint size (Fig. 6)
//	fig7    — fingerprint-lookup messages vs cluster size (Fig. 7)
//	fig8    — EDR vs cluster size on four workloads (Fig. 8)
//	fig-ext — dedup, balance and bid fan-out at 4–128 nodes (extends Figs. 7–8)
//	ram     — §4.3 RAM-usage model (DDFS vs Extreme Binning vs Σ-Dedupe)
//
// Absolute magnitudes depend on the host; the reproduction targets are the
// shapes: who wins, by roughly what factor, and where crossovers fall.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Options tune experiment cost.
type Options struct {
	// Scale multiplies dataset sizes (1.0 = defaults documented in
	// DESIGN.md; smaller is faster).
	Scale float64
	// Quick trims sweeps to a few points for smoke runs and benchmarks.
	Quick bool
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1
	}
	return o.Scale
}

// Table is a printable experiment result.
type Table struct {
	Name    string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.Name, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Headers)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// figFunc runs one experiment.
type figFunc func(Options) (*Table, error)

// registry maps experiment names to implementations.
var registry = map[string]figFunc{
	"table1":  table1,
	"table2":  table2,
	"fig1":    fig1,
	"fig4a":   fig4a,
	"fig4b":   fig4b,
	"fig5a":   fig5a,
	"fig5b":   fig5b,
	"fig6":    fig6,
	"fig7":    fig7,
	"fig8":    fig8,
	"fig-ext": figExt,
	"ram":     ramTable,
}

// Names lists available experiments in a stable order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment.
func Run(name string, opts Options) (*Table, error) {
	fn, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return fn(opts)
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func mbs(v float64) string { return fmt.Sprintf("%.1f", v/(1<<20)) }
