package mikpoly_test

import (
	"bytes"
	"fmt"
	"testing"

	"mikpoly"
)

// fastOptions keeps the public-API tests quick while exercising the whole
// pipeline.
func fastOptions() mikpoly.Options {
	return mikpoly.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256}
}

func TestPublicAPIRoundTrip(t *testing.T) {
	c, err := mikpoly.NewCompiler(mikpoly.A100(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := mikpoly.RandomMatrix(123, 77, 1)
	b := mikpoly.RandomMatrix(77, 200, 2)
	got, err := c.GEMM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !mikpoly.AllClose(got, mikpoly.Gemm(a, b), 1e-3) {
		t.Fatal("public-API GEMM differs from reference")
	}
}

func TestPublicAPIConv(t *testing.T) {
	c, err := mikpoly.NewCompiler(mikpoly.A100(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	cs := mikpoly.ConvShape{Batch: 1, InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	in := mikpoly.RandomTensor4(1, 3, 8, 8, 3)
	w := mikpoly.RandomTensor4(4, 3, 3, 3, 4)
	got, err := c.Conv(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := mikpoly.ConvRef(in, w, cs)
	for i := range got.Data {
		d := got.Data[i] - want.Data[i]
		if d > 1e-3 || d < -1e-3 {
			t.Fatal("conv result differs from reference")
		}
	}
}

func TestHardwarePresets(t *testing.T) {
	for _, h := range []mikpoly.Hardware{mikpoly.A100(), mikpoly.A100CUDACores(), mikpoly.Ascend910()} {
		if err := h.Validate(); err != nil {
			t.Error(err)
		}
	}
	if got := mikpoly.DefaultOptions(); got.NGen != 32 || got.NMik != 40 {
		t.Fatalf("DefaultOptions = %+v", got)
	}
	if len(mikpoly.GPUPatterns()) != 2 || len(mikpoly.NPUPatterns()) != 9 {
		t.Fatal("pattern sets wrong")
	}
}

func TestPlannerConfiguration(t *testing.T) {
	lib, err := mikpoly.GenerateLibrary(mikpoly.A100(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	c := mikpoly.NewCompilerFromLibrary(lib)
	c.Planner().Cost = mikpoly.CostWaveOnly
	prog, err := c.Plan(mikpoly.GemmShape{M: 512, N: 512, K: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Example demonstrates the quickstart flow from the package documentation.
func Example() {
	c, err := mikpoly.NewCompiler(mikpoly.A100(), mikpoly.Options{
		NGen: 6, NSyn: 9, NMik: 10, NPred: 256,
	})
	if err != nil {
		panic(err)
	}
	// A shape never seen before becomes known "at runtime".
	shape := mikpoly.GemmShape{M: 333, N: 512, K: 128}
	prog, err := c.Plan(shape)
	if err != nil {
		panic(err)
	}
	fmt.Println("regions:", len(prog.Regions) > 0)
	a := mikpoly.RandomMatrix(shape.M, shape.K, 1)
	b := mikpoly.RandomMatrix(shape.K, shape.N, 2)
	out, err := c.GEMM(a, b)
	if err != nil {
		panic(err)
	}
	fmt.Println("correct:", mikpoly.AllClose(out, mikpoly.Gemm(a, b), 1e-3))
	// Output:
	// regions: true
	// correct: true
}

func TestLibraryPersistencePublicAPI(t *testing.T) {
	lib, err := mikpoly.GenerateLibrary(mikpoly.A100(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mikpoly.SaveLibrary(lib, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := mikpoly.LoadLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c := mikpoly.NewCompilerFromLibrary(loaded)
	a := mikpoly.RandomMatrix(50, 60, 1)
	b := mikpoly.RandomMatrix(60, 70, 2)
	out, err := c.GEMM(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !mikpoly.AllClose(out, mikpoly.Gemm(a, b), 1e-3) {
		t.Fatal("compiler from loaded library computes wrong results")
	}
}

func TestWinogradPublicAPI(t *testing.T) {
	cs := mikpoly.ConvShape{Batch: 1, InC: 3, InH: 8, InW: 8, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if !mikpoly.WinogradApplicable(cs) {
		t.Fatal("stride-1 3x3 must be winograd-applicable")
	}
	in := mikpoly.RandomTensor4(1, 3, 8, 8, 1)
	w := mikpoly.RandomTensor4(2, 3, 3, 3, 2)
	got, err := mikpoly.WinogradConv(in, w, cs)
	if err != nil {
		t.Fatal(err)
	}
	want := mikpoly.ConvRef(in, w, cs)
	for i := range got.Data {
		d := got.Data[i] - want.Data[i]
		if d > 1e-3 || d < -1e-3 {
			t.Fatal("winograd result differs from direct conv")
		}
	}
	cs.Stride = 2
	if mikpoly.WinogradApplicable(cs) {
		t.Fatal("stride-2 must not be applicable")
	}
}
