package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Quick: true, Scale: 0.3}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimPrefix(tab.Rows[row][col], "1/"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestAllExperimentsRunQuick(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			tab, err := Run(name, quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Rows) == 0 {
				t.Fatal("experiment produced no rows")
			}
			for i, row := range tab.Rows {
				if len(row) != len(tab.Headers) {
					t.Fatalf("row %d has %d cells, want %d", i, len(row), len(tab.Headers))
				}
			}
			var buf bytes.Buffer
			tab.Fprint(&buf)
			if !strings.Contains(buf.String(), tab.Title) {
				t.Fatal("Fprint lost the title")
			}
		})
	}
}

// TestClusterFiguresGolden pins the trace-driven figures to
// testdata/*.golden, written by the simulator's former private stream
// pipeline: replaying through ingest.Session must repeat every digit of
// every row. fig-ext's golden repeats, cell for cell, the rows of the
// sigma-bench scale-out mode it replaced.
func TestClusterFiguresGolden(t *testing.T) {
	for _, name := range []string{"fig6", "fig7", "fig8", "fig-ext", "table1"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			tab, err := Run(name, quick)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			tab.Fprint(&got)
			if got.String() != string(want) {
				t.Errorf("%s differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", name, name, got.String(), want)
			}
		})
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", quick); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

func TestNamesComplete(t *testing.T) {
	want := []string{"fig-ext", "fig1", "fig4a", "fig4b", "fig5a", "fig5b", "fig6", "fig7", "fig8", "ram", "table1", "table2"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFig1Shape checks the Fig. 1 acceptance criterion: the estimate at
// the largest k is closer to the real resemblance than the k=1 estimate
// for low-similarity pairs, and all estimates are probabilities.
func TestFig1Shape(t *testing.T) {
	tab, err := fig1(quick)
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		real := cell(t, tab, r, 1)
		for c := 2; c < len(tab.Headers); c++ {
			est := cell(t, tab, r, c)
			if est < 0 || est > 1 {
				t.Fatalf("row %d estimate %v out of range", r, est)
			}
		}
		kBig := cell(t, tab, r, len(tab.Headers)-1)
		if diff := kBig - real; diff > 0.25 || diff < -0.25 {
			t.Fatalf("row %d: large-k estimate %v far from real %v", r, kBig, real)
		}
	}
	// Pairs are ordered from high to low similarity.
	if cell(t, tab, 0, 1) <= cell(t, tab, 3, 1) {
		t.Fatal("similarity classes not ordered")
	}
}

// TestFig5bShape: normalized DR decreases (weakly) as the sampling rate
// coarsens, at fixed super-chunk size.
func TestFig5bShape(t *testing.T) {
	tab, err := fig5b(quick)
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < len(tab.Headers); c++ {
		fine := cell(t, tab, 0, c)
		coarse := cell(t, tab, len(tab.Rows)-1, c)
		if coarse > fine+0.05 {
			t.Fatalf("column %d: coarser sampling improved DR (%v -> %v)", c, fine, coarse)
		}
	}
}

// TestTable2Calibration: measured DRs stay within the calibration bands.
func TestTable2Calibration(t *testing.T) {
	tab, err := table2(Options{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	bands := map[string][2]float64{
		"linux": {6.0, 11.0},
		"vm":    {3.2, 5.5},
		"mail":  {8.0, 13.5},
		"web":   {1.5, 2.4},
	}
	for r, row := range tab.Rows {
		band := bands[row[0]]
		dr := cell(t, tab, r, 2)
		if dr < band[0] || dr > band[1] {
			t.Fatalf("%s DR %v outside band %v", row[0], dr, band)
		}
	}
}

// TestRAMShape: the similarity index is the smallest structure and is
// exactly 1/32 of the full chunk index.
func TestRAMShape(t *testing.T) {
	tab, err := ramTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	sigma := cell(t, tab, 2, 2)
	eb := cell(t, tab, 1, 2)
	full := cell(t, tab, 3, 2)
	if sigma >= eb {
		t.Fatalf("sigma RAM %v should undercut EB %v", sigma, eb)
	}
	if ratio := full / sigma; ratio < 31 || ratio > 33 {
		t.Fatalf("full/sigma = %v, want 32", ratio)
	}
}
