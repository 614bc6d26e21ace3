package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config { return Config{Quick: true} }

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"a", "bb"}}
	tb.AddRow("v", 1.234567)
	tb.AddRow(42, "s")
	tb.Note("hello %d", 7)
	var buf bytes.Buffer
	tb.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"== x: demo ==", "1.23", "42", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 23 {
		t.Fatalf("experiment count = %d, want 23", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("%s has no runner", e.ID)
		}
	}
	if _, ok := Lookup("fig6-gemm"); !ok {
		t.Fatal("Lookup failed for fig6-gemm")
	}
	if _, ok := Lookup("nonexistent"); ok {
		t.Fatal("Lookup returned a phantom experiment")
	}
}

// speedupCell parses a formatted float cell.
func speedupCell(t *testing.T, tb *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tb.Rows[row][col], err)
	}
	return v
}

func TestFig1ShowsPerformanceCliff(t *testing.T) {
	tb, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 8 {
		t.Fatalf("too few rows: %d", len(tb.Rows))
	}
	var best, worst float64
	worst = 1e18
	for i := range tb.Rows {
		v := speedupCell(t, tb, i, 2)
		if v > best {
			best = v
		}
		if v < worst {
			worst = v
		}
	}
	if best/worst < 5 {
		t.Fatalf("cliff ratio %.1f too small (paper: ~11.8x)", best/worst)
	}
	if best < 100 {
		t.Fatalf("peak vendor TFLOPS %.1f implausibly low", best)
	}
}

func TestFig6GEMMShape(t *testing.T) {
	tb, err := Fig6GEMM(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	mik := speedupCell(t, tb, 0, 1) // MikPoly vs cuBLAS mean
	cut := speedupCell(t, tb, 1, 1) // CUTLASS vs cuBLAS mean
	if mik < 1.1 {
		t.Fatalf("MikPoly vs cuBLAS = %.2f, want > 1.1 (paper 1.47)", mik)
	}
	if cut > mik {
		t.Fatalf("CUTLASS (%.2f) must not beat MikPoly (%.2f) on average", cut, mik)
	}
}

func TestFig6ConvShape(t *testing.T) {
	tb, err := Fig6Conv(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if mik := speedupCell(t, tb, 0, 1); mik < 1.1 {
		t.Fatalf("MikPoly vs cuDNN = %.2f, want > 1.1 (paper 1.98)", mik)
	}
}

func TestFig7Shapes(t *testing.T) {
	g, err := Fig7GEMM(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if v := speedupCell(t, g, 0, 1); v < 1.0 {
		t.Fatalf("NPU GEMM vs CANN = %.2f, want >= 1.0 (paper 1.10)", v)
	}
	c, err := Fig7Conv(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if v := speedupCell(t, c, 0, 1); v < 1.05 {
		t.Fatalf("NPU conv vs CANN = %.2f, want > 1.05 (paper 1.41)", v)
	}
}

func TestFig10Ordering(t *testing.T) {
	tb, err := Fig10(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	diet := speedupCell(t, tb, 0, 1)
	nim := speedupCell(t, tb, 1, 1)
	if diet < 1.2 {
		t.Fatalf("vs DietCode = %.2f, want > 1.2 (paper 2.94)", diet)
	}
	if nim <= diet {
		t.Fatalf("Nimble (%.2f) must trail DietCode (%.2f) (paper 7.54 vs 2.94)", nim, diet)
	}
}

func TestFig12bOrdering(t *testing.T) {
	tb, err := Fig12b(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	full := speedupCell(t, tb, 0, 1)
	wave := speedupCell(t, tb, 1, 1)
	pipe := speedupCell(t, tb, 2, 1)
	if full < 0.9 || full > 1.01 {
		t.Fatalf("MikPoly vs oracle = %.2f, want ~0.96", full)
	}
	if wave >= full || pipe >= full {
		t.Fatalf("ablated variants (wave %.2f, pipe %.2f) must trail the full model (%.2f)",
			wave, pipe, full)
	}
}

func TestTable9CaseStudy(t *testing.T) {
	tb, err := Table9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 is GEMM-AB: its speedup over GEMM-A must be >= 1.
	spd := speedupCell(t, tb, 1, 6)
	if spd < 1.0 {
		t.Fatalf("polymerized case-study speedup = %.2f, want >= 1 (paper 1.21)", spd)
	}
	effA := speedupCell(t, tb, 0, 4)
	effAB := speedupCell(t, tb, 1, 4)
	if spd > 1.01 && effAB <= effA {
		t.Fatalf("sm_efficiency must improve with polymerization: %.1f%% -> %.1f%%", effA, effAB)
	}
}

func TestAblationPruningKeepsResults(t *testing.T) {
	tb, err := AblationPruning(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][4] != "true" {
		t.Fatal("pruning changed selected program costs")
	}
	candOn, _ := strconv.Atoi(tb.Rows[0][1])
	candOff, _ := strconv.Atoi(tb.Rows[1][1])
	if candOn > candOff {
		t.Fatalf("pruning evaluated more candidates (%d) than no-pruning (%d)", candOn, candOff)
	}
}

func TestTableWriteCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "demo", Header: []string{"shape", "v"}}
	tb.AddRow("(1,2,3)", 1.5)
	tb.AddRow(`has"quote`, 2)
	tb.Note("a note")
	var buf bytes.Buffer
	tb.WriteCSV(&buf)
	out := buf.String()
	for _, want := range []string{
		"shape,v\n",
		`"(1,2,3)",1.50`,
		`"has""quote",2`,
		"# a note",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestScatterOutput(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Quick: true, ScatterDir: dir}
	if _, err := Fig6GEMM(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig6-gemm-scatter.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 100 {
		t.Fatalf("scatter has %d lines, want >= 100 (quick suite)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "case,flops,MikPoly-speedup") {
		t.Fatalf("scatter header = %q", lines[0])
	}
	cols := strings.Split(lines[1], ",")
	if len(cols) != 4 {
		t.Fatalf("scatter row has %d columns: %q", len(cols), lines[1])
	}
	if _, err := strconv.ParseFloat(cols[1], 64); err != nil {
		t.Fatalf("flops column not numeric: %q", cols[1])
	}
}
