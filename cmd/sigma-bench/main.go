// Command sigma-bench regenerates the tables and figures of the paper's
// evaluation section (internal/experiments), plus fig-ext, their 4–128
// node scale-out extension. Throughput, memory, GC, recovery and wire
// measurements live in bench/ — see EXPERIMENTS.md. With no arguments it
// lists what it can run; "all" runs every experiment.
//
// Usage:
//
//	sigma-bench [-scale 1.0] [-quick] [-json] all|fig1|...|fig-ext|table2|ram ...
//
// With -json every table is emitted as one JSON object per line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"sigmadedupe/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sigma-bench:", err)
		os.Exit(1)
	}
}

// available renders the experiment names for the listing and the
// unknown-name error.
func available() string {
	return "available experiments: " + strings.Join(experiments.Names(), ", ") + ", all"
}

func run(args []string) error {
	fs := flag.NewFlagSet("sigma-bench", flag.ContinueOnError)
	scale := fs.Float64("scale", 1.0, "dataset scale multiplier (smaller = faster)")
	quick := fs.Bool("quick", false, "trim sweeps to a few points")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON, one object per line")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile of the whole run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := fs.Args()
	if len(names) == 0 {
		fmt.Println(available())
		return nil
	}
	if len(names) == 1 && names[0] == "all" {
		names = experiments.Names()
	}
	for _, name := range names {
		if !slices.Contains(experiments.Names(), name) {
			fmt.Fprintln(os.Stderr, available())
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			_ = pprof.Lookup("allocs").WriteTo(f, 0)
			f.Close()
		}()
	}
	enc := json.NewEncoder(os.Stdout)
	for _, name := range names {
		start := time.Now()
		tab, err := experiments.Run(name, experiments.Options{Scale: *scale, Quick: *quick})
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)
		if !*jsonOut {
			tab.Fprint(os.Stdout)
			fmt.Printf("  [%s completed in %v]\n\n", name, elapsed)
			continue
		}
		if err := enc.Encode(newTableReport(tab, elapsed)); err != nil {
			return err
		}
	}
	return nil
}

// tableReport is the JSON shape of one experiment.
type tableReport struct {
	Experiment string     `json:"experiment"`
	Title      string     `json:"title"`
	Headers    []string   `json:"headers"`
	Rows       [][]string `json:"rows"`
	Notes      []string   `json:"notes,omitempty"`
	ElapsedMS  int64      `json:"elapsed_ms"`
}

func newTableReport(tab *experiments.Table, elapsed time.Duration) tableReport {
	return tableReport{
		Experiment: tab.Name,
		Title:      tab.Title,
		Headers:    tab.Headers,
		Rows:       tab.Rows,
		Notes:      tab.Notes,
		ElapsedMS:  elapsed.Milliseconds(),
	}
}
