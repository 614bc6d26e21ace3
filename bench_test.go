package mikpoly_test

// This file exposes every paper table and figure as a testing.B benchmark:
// `go test -bench=. -benchmem` regenerates the full evaluation (quick-mode
// suites; run cmd/mikpoly without -quick for the complete paper-sized
// counts). Custom metrics attach the headline number of each experiment —
// e.g. the mean speedup — so benchmark output doubles as the results table.

import (
	"strconv"
	"testing"

	"mikpoly"
	"mikpoly/internal/bench"
	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/tune"
	"mikpoly/internal/workload"
)

// runExperiment executes one experiment per iteration and reports the value
// of row/col (typically the headline mean speedup) as a custom metric.
func runExperiment(b *testing.B, id string, row, col int, metric string) {
	b.Helper()
	e, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var v float64
	for i := 0; i < b.N; i++ {
		t, err := e.Run(bench.Config{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if row < len(t.Rows) && col < len(t.Rows[row]) {
			if x, err := strconv.ParseFloat(t.Rows[row][col], 64); err == nil {
				v = x
			}
		}
	}
	if metric != "" {
		b.ReportMetric(v, metric)
	}
}

func BenchmarkFig1VendorShapeCliff(b *testing.B) { runExperiment(b, "fig1", 0, 2, "peak-TFLOPS") }
func BenchmarkFig6GEMM(b *testing.B)             { runExperiment(b, "fig6-gemm", 0, 1, "mean-speedup") }
func BenchmarkFig6Conv(b *testing.B)             { runExperiment(b, "fig6-conv", 0, 1, "mean-speedup") }
func BenchmarkFig7GEMM(b *testing.B)             { runExperiment(b, "fig7-gemm", 0, 1, "mean-speedup") }
func BenchmarkFig7Conv(b *testing.B)             { runExperiment(b, "fig7-conv", 0, 1, "mean-speedup") }
func BenchmarkFig8LanguageModels(b *testing.B)   { runExperiment(b, "fig8", 0, 1, "bert-speedup") }
func BenchmarkFig9CNNs(b *testing.B)             { runExperiment(b, "fig9", 0, 1, "alexnet-speedup") }
func BenchmarkFig9CNNsNPU(b *testing.B)          { runExperiment(b, "fig9-npu", 0, 1, "alexnet-speedup") }
func BenchmarkFig10RangeCompilers(b *testing.B)  { runExperiment(b, "fig10", 0, 1, "vs-dietcode") }
func BenchmarkTable5InvalidRuns(b *testing.B)    { runExperiment(b, "table5", 0, 1, "vs-dietcode") }
func BenchmarkTable8LlamaOps(b *testing.B)       { runExperiment(b, "table8", 0, 3, "qkv-speedup") }
func BenchmarkFig11LlamaE2E(b *testing.B)        { runExperiment(b, "fig11", 0, 1, "b1-speedup") }
func BenchmarkFig12aOverhead(b *testing.B)       { runExperiment(b, "fig12a", 5, 5, "overhead-pct") }
func BenchmarkFig12bCostModel(b *testing.B)      { runExperiment(b, "fig12b", 0, 1, "vs-oracle") }
func BenchmarkFig13Hyperparams(b *testing.B)     { runExperiment(b, "fig13", 1, 2, "ngen32-speedup") }
func BenchmarkTable9CaseStudy(b *testing.B)      { runExperiment(b, "table9", 1, 6, "case-speedup") }
func BenchmarkAblationPatterns(b *testing.B)     { runExperiment(b, "ablation-patterns", 2, 1, "full-set") }
func BenchmarkAblationPruning(b *testing.B)      { runExperiment(b, "ablation-pruning", 0, 3, "plan-us") }
func BenchmarkAblationWinograd(b *testing.B) {
	runExperiment(b, "ablation-winograd", 0, 1, "vs-im2col")
}
func BenchmarkAblationFusion(b *testing.B) { runExperiment(b, "ablation-fusion", 0, 3, "fusion-gain") }
func BenchmarkAblationSplitK(b *testing.B) { runExperiment(b, "ablation-splitk", 1, 3, "splitk-gain") }
func BenchmarkAblationEvolve(b *testing.B) {
	runExperiment(b, "ablation-evolve", 1, 1, "evolved-speedup")
}
func BenchmarkExtDetection(b *testing.B) { runExperiment(b, "ext-detection", 0, 1, "det-speedup") }

// Component micro-benchmarks.

func sharedGPUCompiler(b *testing.B) *core.Compiler {
	b.Helper()
	lib, err := core.SharedLibrary(hw.A100(), tune.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return core.NewCompilerFromLibrary(lib)
}

// BenchmarkOnlinePlan measures the online polymerization latency per shape —
// the quantity the paper quotes as ~2 µs (our Go implementation is slower;
// see Fig. 12a's modeled-overhead discussion).
func BenchmarkOnlinePlan(b *testing.B) {
	c := sharedGPUCompiler(b)
	cases := workload.Subsample(workload.Table3Suite(), 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := cases[i%len(cases)].Shape
		if _, _, err := c.PlanUncached(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOfflineGeneration measures the full offline stage S1 with the
// paper's hyperparameters (the paper's equivalent took ~6 hours of GPU
// auto-tuning; the simulator substrate makes it ~100 ms).
func BenchmarkOfflineGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tune.Generate(hw.A100(), tune.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateProgram measures the simulator substrate on a mid-size
// polymerized program.
func BenchmarkSimulateProgram(b *testing.B) {
	c := sharedGPUCompiler(b)
	prog, err := c.Plan(mikpoly.GemmShape{M: 4096, N: 1024, K: 4096})
	if err != nil {
		b.Fatal(err)
	}
	h := hw.A100()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Simulate(h)
	}
}

// BenchmarkNumericExecute measures real (CPU) execution of a polymerized
// program, the correctness path.
func BenchmarkNumericExecute(b *testing.B) {
	c := sharedGPUCompiler(b)
	a := mikpoly.RandomMatrix(256, 256, 1)
	bb := mikpoly.RandomMatrix(256, 256, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.GEMM(a, bb); err != nil {
			b.Fatal(err)
		}
	}
}
