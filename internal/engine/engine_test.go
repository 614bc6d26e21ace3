package engine

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

var (
	once sync.Once
	lib  *tune.Library
)

func planner(t *testing.T) *poly.Planner {
	t.Helper()
	once.Do(func() {
		var err error
		lib, err = tune.Generate(hw.A100(), tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256})
		if err != nil {
			panic(err)
		}
	})
	return poly.NewPlanner(lib)
}

func TestExecuteMatchesReference(t *testing.T) {
	pl := planner(t)
	shapes := []tensor.GemmShape{
		{M: 64, N: 64, K: 64},
		{M: 100, N: 60, K: 40},  // ragged everything
		{M: 1, N: 1, K: 1},      // degenerate
		{M: 17, N: 200, K: 31},  // tiny M
		{M: 130, N: 17, K: 96},  // tiny N
		{M: 257, N: 129, K: 65}, // off-by-one over tile sizes
	}
	for _, s := range shapes {
		prog, _, err := pl.Plan(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		a := tensor.RandomMatrix(s.M, s.K, 101)
		b := tensor.RandomMatrix(s.K, s.N, 102)
		got, err := Execute(prog, a, b)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		want := tensor.Gemm(a, b)
		if !tensor.AllClose(got, want, 1e-3) {
			t.Fatalf("%v: polymerized result differs from reference (max diff %g)",
				s, maxAbsDiff(got.Data, want.Data))
		}
	}
}

func TestExecuteMultiRegionProgram(t *testing.T) {
	// Hand-built two-region program (Pattern II) with different kernels.
	s := tensor.GemmShape{M: 96, N: 48, K: 32}
	prog := &poly.Program{
		Shape:   s,
		Pattern: poly.PatternII,
		Regions: []poly.Region{
			{M0: 0, N0: 0, M: 64, N: 48, K: 32, Kern: kernel.New(32, 16, 32, kernel.Config{Stages: 2, Vec: 4})},
			{M0: 64, N0: 0, M: 32, N: 48, K: 32, Kern: kernel.New(16, 48, 16, kernel.Config{Stages: 2, Vec: 4})},
		},
	}
	a := tensor.RandomMatrix(s.M, s.K, 7)
	b := tensor.RandomMatrix(s.K, s.N, 8)
	got, err := Execute(prog, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, tensor.Gemm(a, b), 1e-3) {
		t.Fatal("multi-region execution differs from reference")
	}
}

func TestExecuteRejectsBadOperands(t *testing.T) {
	pl := planner(t)
	s := tensor.GemmShape{M: 32, N: 32, K: 32}
	prog, _, err := pl.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(prog, tensor.NewMatrix(32, 31), tensor.NewMatrix(32, 32)); err == nil {
		t.Fatal("wrong A shape accepted")
	}
	if _, err := Execute(prog, tensor.NewMatrix(32, 32), tensor.NewMatrix(31, 32)); err == nil {
		t.Fatal("wrong B shape accepted")
	}
}

func TestExecuteRejectsInvalidProgram(t *testing.T) {
	s := tensor.GemmShape{M: 32, N: 32, K: 32}
	prog := &poly.Program{Shape: s, Pattern: poly.PatternI} // no regions
	if _, err := Execute(prog, tensor.NewMatrix(32, 32), tensor.NewMatrix(32, 32)); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestExecuteConvMatchesDirect(t *testing.T) {
	pl := planner(t)
	cs := tensor.ConvShape{Batch: 2, InC: 3, InH: 10, InW: 10, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}
	prog, _, err := pl.Plan(cs.GemmShape())
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.RandomTensor4(cs.Batch, cs.InC, cs.InH, cs.InW, 31)
	w := tensor.RandomTensor4(cs.OutC, cs.InC, cs.KH, cs.KW, 32)
	got, err := ExecuteConv(prog, in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.ConvRef(in, w, cs)
	if d := maxAbsDiff(got.Data, want.Data); d > 1e-3 {
		t.Fatalf("conv differs from direct by %g", d)
	}
}

func TestExecuteConvShapeMismatch(t *testing.T) {
	pl := planner(t)
	cs := tensor.ConvShape{Batch: 1, InC: 1, InH: 4, InW: 4, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 0}
	prog, _, err := pl.Plan(tensor.GemmShape{M: 5, N: 5, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	in := tensor.NewTensor4(1, 1, 4, 4)
	w := tensor.NewTensor4(1, 1, 3, 3)
	if _, err := ExecuteConv(prog, in, w, cs); err == nil {
		t.Fatal("mismatched program accepted")
	}
}

// The paper's central correctness claim: MikPoly handles *arbitrary* runtime
// shapes with zero invalid runs. Fuzz shapes, plan, execute, compare.
func TestExecuteArbitraryShapesProperty(t *testing.T) {
	pl := planner(t)
	f := func(seed uint64) bool {
		s := tensor.GemmShape{
			M: int(seed%300) + 1,
			N: int(seed/300%300) + 1,
			K: int(seed/90000%150) + 1,
		}
		prog, _, err := pl.Plan(s)
		if err != nil {
			return false
		}
		a := tensor.RandomMatrix(s.M, s.K, seed|1)
		b := tensor.RandomMatrix(s.K, s.N, seed|2)
		got, err := Execute(prog, a, b)
		if err != nil {
			return false
		}
		return tensor.AllClose(got, tensor.Gemm(a, b), 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The pooled workspaces must make repeated executions allocation-light: the
// steady-state allocations are the output matrix plus pool bookkeeping, far
// below the multi-megabyte staging copies an unpooled implementation makes.
func TestExecuteReusesWorkspaces(t *testing.T) {
	pl := planner(t)
	s := tensor.GemmShape{M: 150, N: 130, K: 96}
	prog, _, err := pl.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.RandomMatrix(s.M, s.K, 1)
	b := tensor.RandomMatrix(s.K, s.N, 2)
	// Warm the pool.
	if _, err := Execute(prog, a, b); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Execute(prog, a, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("Execute performs %v allocations per run; workspaces are not pooled", allocs)
	}
}

func TestScratchZeroesReusedBuffers(t *testing.T) {
	var ws scratch
	m := ws.matrix(4, 4)
	for i := range m.Data {
		m.Data[i] = 7
	}
	ws.release()
	m2 := ws.matrix(4, 4)
	defer ws.release()
	for _, v := range m2.Data {
		if v != 0 {
			t.Fatal("reused workspace not zeroed")
		}
	}
}

// Split-K programs accumulate partial products from reduction slices into
// the shared output; numeric execution must still match reference GEMM.
func TestExecuteSplitKProgram(t *testing.T) {
	s := tensor.GemmShape{M: 48, N: 32, K: 100}
	k := kernel.New(16, 16, 16, kernel.Config{Stages: 2, Vec: 4})
	prog := &poly.Program{
		Shape:   s,
		Pattern: poly.PatternSplitK,
		Regions: []poly.Region{
			{M: 48, N: 32, KOff: 0, K: 33, Kern: k},
			{M: 48, N: 32, KOff: 33, K: 33, Kern: k},
			{M: 48, N: 32, KOff: 66, K: 34, Kern: k},
		},
	}
	a := tensor.RandomMatrix(s.M, s.K, 61)
	b := tensor.RandomMatrix(s.K, s.N, 62)
	got, err := Execute(prog, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, tensor.Gemm(a, b), 1e-3) {
		t.Fatal("split-K execution differs from reference")
	}
}

// A planner with split-K enabled must still produce numerically correct
// programs for the shapes where it triggers.
func TestExecutePlannedSplitK(t *testing.T) {
	pl := planner(t)
	pl.EnableSplitK = true
	s := tensor.GemmShape{M: 33, N: 17, K: 512}
	prog, _, err := pl.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.RandomMatrix(s.M, s.K, 71)
	b := tensor.RandomMatrix(s.K, s.N, 72)
	got, err := Execute(prog, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, tensor.Gemm(a, b), 1e-3) {
		t.Fatalf("planned %s program differs from reference", prog.Pattern)
	}
}

// maxAbsDiff is the largest element-wise |a−b| of two compact buffers, +Inf
// when their lengths differ.
func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var max float64
	for i := range a {
		max = math.Max(max, math.Abs(float64(a[i])-float64(b[i])))
	}
	return max
}
