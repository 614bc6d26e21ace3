package core

import (
	"math"
	"sync"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

func testOpts() tune.Options {
	return tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256}
}

func newTestCompiler(t *testing.T) *Compiler {
	t.Helper()
	lib, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	return NewCompilerFromLibrary(lib)
}

func TestNewCompiler(t *testing.T) {
	c, err := NewCompiler(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "MikPoly" {
		t.Fatalf("Name = %q", c.Name())
	}
	if c.Hardware().Name != "nvidia-a100" {
		t.Fatalf("Hardware = %q", c.Hardware().Name)
	}
	if len(c.Library().Kernels) == 0 {
		t.Fatal("empty library")
	}
}

func TestNewCompilerPropagatesErrors(t *testing.T) {
	if _, err := NewCompiler(hw.A100(), tune.Options{}); err == nil {
		t.Fatal("invalid options accepted")
	}
}

func TestPlanCaching(t *testing.T) {
	c := newTestCompiler(t)
	s := tensor.GemmShape{M: 100, N: 200, K: 300}
	p1, err := c.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("second Plan must return the cached program")
	}
	if n, _ := c.PlanStats(); n != 1 {
		t.Fatalf("planCount = %d, want 1 (cache hit must not replan)", n)
	}
	c.ClearCache()
	p3, err := c.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Fatal("ClearCache did not drop the program")
	}
}

func TestPlanStatsAccumulate(t *testing.T) {
	c := newTestCompiler(t)
	shapes := []tensor.GemmShape{{M: 10, N: 10, K: 10}, {M: 20, N: 20, K: 20}}
	for _, s := range shapes {
		if _, err := c.Plan(s); err != nil {
			t.Fatal(err)
		}
	}
	n, stats := c.PlanStats()
	if n != 2 {
		t.Fatalf("planCount = %d", n)
	}
	if stats.Candidates < 2 || stats.Elapsed <= 0 {
		t.Fatalf("stats not accumulated: %+v", stats)
	}
}

func TestGEMMEndToEnd(t *testing.T) {
	c := newTestCompiler(t)
	a := tensor.RandomMatrix(123, 77, 1)
	b := tensor.RandomMatrix(77, 45, 2)
	got, err := c.GEMM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.AllClose(got, tensor.Gemm(a, b), 1e-3) {
		t.Fatal("compiler GEMM differs from reference")
	}
	if _, err := c.GEMM(a, tensor.NewMatrix(76, 10)); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestConvEndToEnd(t *testing.T) {
	c := newTestCompiler(t)
	cs := tensor.ConvShape{Batch: 1, InC: 4, InH: 9, InW: 9, OutC: 6, KH: 3, KW: 3, Stride: 2, Pad: 1}
	in := tensor.RandomTensor4(cs.Batch, cs.InC, cs.InH, cs.InW, 3)
	w := tensor.RandomTensor4(cs.OutC, cs.InC, cs.KH, cs.KW, 4)
	got, err := c.Conv(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.ConvRef(in, w, cs)
	if d := maxAbsDiff(got.Data, want.Data); d > 1e-3 {
		t.Fatalf("conv differs by %g", d)
	}
	if _, err := c.Conv(in, w, tensor.ConvShape{}); err == nil {
		t.Fatal("invalid conv shape accepted")
	}
}

func TestSimulate(t *testing.T) {
	c := newTestCompiler(t)
	res, err := c.Simulate(tensor.GemmShape{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.NumTasks <= 0 {
		t.Fatalf("implausible simulation %+v", res)
	}
}

func TestSharedLibraryReuse(t *testing.T) {
	l1, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	l2, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if l1 != l2 {
		t.Fatal("SharedLibrary must return the cached instance")
	}
	other := testOpts()
	other.NMik = 5
	l3, err := SharedLibrary(hw.A100(), other)
	if err != nil {
		t.Fatal(err)
	}
	if l3 == l1 {
		t.Fatal("different options must not share a library")
	}
	// A modified preset under its preset name is another device.
	half := hw.A100()
	half.NumPEs /= 2
	l4, err := SharedLibrary(half, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if l4 == l1 || l4.HW.NumPEs != half.NumPEs {
		t.Fatalf("a100 with %d PEs got the library tuned for %d", half.NumPEs, l4.HW.NumPEs)
	}
}

func TestPlanConcurrentSafety(t *testing.T) {
	c := newTestCompiler(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := tensor.GemmShape{M: 64 + i%4, N: 64, K: 64}
			if _, err := c.Plan(s); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
}

func TestPlanUncachedReportsModeledOverhead(t *testing.T) {
	c := newTestCompiler(t)
	_, st, err := c.PlanUncached(tensor.GemmShape{M: 1000, N: 1000, K: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if st.Candidates < 1 {
		t.Fatal("no candidates reported")
	}
	// Every examined candidate is charged, costed or bound-rejected, at
	// poly.OnlineCostPerCandidate.
	want := float64(st.Candidates+st.PrunedCandidates) * 10
	if got := st.ModeledOverheadCycles(); got != want {
		t.Fatalf("ModeledOverheadCycles = %g, want %g", got, want)
	}
}

func TestSimulateInvalidShape(t *testing.T) {
	c := newTestCompiler(t)
	if _, err := c.Simulate(tensor.GemmShape{}); err == nil {
		t.Fatal("invalid shape accepted")
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
