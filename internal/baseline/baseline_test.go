package baseline

import (
	"errors"
	"sync"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

var (
	once    sync.Once
	cudaLib *tune.Library
)

func cudaLibrary(t *testing.T) *tune.Library {
	t.Helper()
	once.Do(func() {
		var err error
		cudaLib, err = tune.Generate(hw.A100CUDACores(),
			tune.Options{NGen: 8, NSyn: 10, NMik: 12, NPred: 512})
		if err != nil {
			panic(err)
		}
	})
	return cudaLib
}

func TestVendorLibrariesConstruct(t *testing.T) {
	for _, v := range []*Vendor{CuBLAS(hw.A100()), CuDNN(hw.A100()), CANN(hw.Ascend910())} {
		if len(v.Kernels()) < 4 {
			t.Errorf("%s: only %d kernels survived feasibility", v.Name(), len(v.Kernels()))
		}
		for _, k := range v.Kernels() {
			if k.Premium <= 1 {
				t.Errorf("%s kernel %v lacks hand-tuning premium", v.Name(), k)
			}
		}
	}
}

func TestVendorPlanValidAnyShape(t *testing.T) {
	v := CuBLAS(hw.A100())
	for _, s := range []tensor.GemmShape{
		{M: 4096, N: 4096, K: 4096},
		{M: 105, N: 1024, K: 12544},
		{M: 1, N: 1, K: 1},
		{M: 17, N: 31, K: 999},
	} {
		prog, err := v.Plan(s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if len(prog.Regions) != 1 {
			t.Fatalf("vendor must emit single-kernel programs, got %d regions", len(prog.Regions))
		}
	}
	if _, err := v.Plan(tensor.GemmShape{}); err == nil {
		t.Fatal("invalid shape accepted")
	}
}

func TestVendorDispatchPrefersBigTilesForBigShapes(t *testing.T) {
	v := CuBLAS(hw.A100())
	big, _ := v.Plan(tensor.GemmShape{M: 4096, N: 4096, K: 4096})
	small, _ := v.Plan(tensor.GemmShape{M: 33, N: 33, K: 64})
	bk, sk := big.Regions[0].Kern, small.Regions[0].Kern
	if bk.UM*bk.UN <= sk.UM*sk.UN {
		t.Fatalf("dispatch picked %v for big and %v for small", bk, sk)
	}
}

// Fig. 1's premise: the same vendor library delivers wildly different TFLOPS
// on equal-FLOP-class shapes; the balanced 4096³ shape must far outrun the
// skinny (105,1024,12544) shape.
func TestVendorShapePerformanceCliff(t *testing.T) {
	h := hw.A100()
	v := CuBLAS(h)
	tput := func(s tensor.GemmShape) float64 {
		prog, err := v.Plan(s)
		if err != nil {
			t.Fatal(err)
		}
		res := prog.Simulate(h)
		return s.FLOPs() / h.CyclesToSeconds(res.Cycles)
	}
	good := tput(tensor.GemmShape{M: 4096, N: 4096, K: 4096})
	bad := tput(tensor.GemmShape{M: 105, N: 1024, K: 12544})
	if ratio := good / bad; ratio < 3 {
		t.Fatalf("vendor cliff ratio = %.2f, want >= 3 (paper: 262 vs 22 TFLOPS)", ratio)
	}
	if good < 100e12 {
		t.Fatalf("vendor peak GEMM = %.1f TFLOPS, implausibly low", good/1e12)
	}
}

func TestCutlassSizeLadder(t *testing.T) {
	c := NewCutlass(hw.A100())
	big, err := c.Plan(tensor.GemmShape{M: 4096, N: 4096, K: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if k := big.Regions[0].Kern; k.UM != 128 || k.UN != 128 {
		t.Fatalf("large-shape tile = %v, want the 128x128 default", k)
	}
	tiny, err := c.Plan(tensor.GemmShape{M: 7, N: 9, K: 11})
	if err != nil {
		t.Fatal(err)
	}
	if k := tiny.Regions[0].Kern; k.UM != 16 {
		t.Fatalf("degenerate-grid tile = %v, want the smallest rung", k)
	}
	if _, err := c.Plan(tensor.GemmShape{}); err == nil {
		t.Fatal("invalid shape accepted")
	}
	// Wave quantization stays invisible to the ladder: 1.2 waves of the
	// default tile is still the default tile.
	mid, err := c.Plan(tensor.GemmShape{M: 4096, N: 1024, K: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if k := mid.Regions[0].Kern; k.UM != 128 {
		t.Fatalf("mid-shape tile = %v, want default", k)
	}
}

func TestRangeAndRanges(t *testing.T) {
	r := Range{Lo: 2, Hi: 10}
	if !r.Contains(2) || !r.Contains(10) || r.Contains(1) || r.Contains(11) {
		t.Fatal("Range.Contains wrong")
	}
	if (Range{Lo: 0, Hi: 5}).Validate() == nil || (Range{Lo: 5, Hi: 4}).Validate() == nil {
		t.Fatal("invalid ranges accepted")
	}
	rs := Ranges{M: Range{1, 8}, N: Range{4, 4}, K: Range{1, 100}}
	if !rs.Contains(tensor.GemmShape{M: 8, N: 4, K: 50}) {
		t.Fatal("Ranges.Contains wrong")
	}
	if rs.Contains(tensor.GemmShape{M: 8, N: 5, K: 50}) {
		t.Fatal("static dim violation not caught")
	}
}

func TestRepPoints(t *testing.T) {
	pts := repPoints(Range{Lo: 1, Hi: 4096})
	if len(pts) > maxRepsPerDim || len(pts) < 2 {
		t.Fatalf("repPoints = %v, want 2..%d points", pts, maxRepsPerDim)
	}
	if pts[0] != 1 || pts[len(pts)-1] != 4096 {
		t.Fatalf("endpoints missing: %v", pts)
	}
	for _, p := range pts {
		if p < 1 || p > 4096 {
			t.Fatalf("rep %d outside range", p)
		}
	}
	if got := repPoints(Range{Lo: 7, Hi: 7}); len(got) != 1 || got[0] != 7 {
		t.Fatalf("static dim reps = %v", got)
	}
}

func TestDietCodeInRangeAndInvalidRuns(t *testing.T) {
	lib := cudaLibrary(t)
	d, err := NewDietCode(lib, Ranges{
		M: Range{1, 512}, N: Range{1024, 1024}, K: Range{4096, 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One dynamic dim (M) × two static dims → at most maxRepsPerDim
	// tuned programs.
	if n := d.NumTunedPrograms(); n < 2 || n > maxRepsPerDim {
		t.Fatalf("tuned programs = %d, want 2..%d", n, maxRepsPerDim)
	}
	prog, err := d.Plan(tensor.GemmShape{M: 100, N: 1024, K: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	// Out-of-range M → invalid run, the behaviour Table 5 counts.
	_, err = d.Plan(tensor.GemmShape{M: 513, N: 1024, K: 4096})
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range shape gave %v, want ErrOutOfRange", err)
	}
	_, err = d.Plan(tensor.GemmShape{M: 100, N: 512, K: 4096})
	if !errors.Is(err, ErrOutOfRange) {
		t.Fatal("static-dim mismatch must be out of range")
	}
}

func TestDietCodeBucketing(t *testing.T) {
	reps := []int{1, 2, 4, 8, 16}
	for _, tc := range []struct{ v, want int }{{1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		got, ok := bucketFor(reps, tc.v)
		if !ok || got != tc.want {
			t.Fatalf("bucketFor(%d) = %d,%v want %d", tc.v, got, ok, tc.want)
		}
	}
	over, ok := bucketFor(reps, 99)
	if !ok || over != 16 {
		t.Fatalf("bucketFor(99) = %d,%v", over, ok)
	}
}

func TestNimbleSingleGenericProgram(t *testing.T) {
	lib := cudaLibrary(t)
	n, err := NewNimble(lib, Ranges{M: Range{1, 4096}, N: Range{1024, 1024}, K: Range{4096, 4096}})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := n.Plan(tensor.GemmShape{M: 64, N: 1024, K: 4096})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n.Plan(tensor.GemmShape{M: 4000, N: 1024, K: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if p1.Regions[0].Kern != p2.Regions[0].Kern {
		t.Fatal("Nimble must reuse one generic program")
	}
	if p1.Regions[0].Kern.Premium >= 1 {
		t.Fatal("Nimble kernel must carry the genericity penalty")
	}
	if _, err := n.Plan(tensor.GemmShape{M: 5000, N: 1024, K: 4096}); !errors.Is(err, ErrOutOfRange) {
		t.Fatal("out-of-range shape must fail")
	}
}

func TestDietCodeRejectsBadRanges(t *testing.T) {
	lib := cudaLibrary(t)
	if _, err := NewDietCode(lib, Ranges{}); err == nil {
		t.Fatal("zero ranges accepted")
	}
	if _, err := NewNimble(lib, Ranges{}); err == nil {
		t.Fatal("zero ranges accepted by Nimble")
	}
}

func TestVendorPlanDeterministic(t *testing.T) {
	v := CuBLAS(hw.A100())
	s := tensor.GemmShape{M: 300, N: 700, K: 900}
	p1, err := v.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := v.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Regions[0].Kern != p2.Regions[0].Kern {
		t.Fatal("vendor dispatch is not deterministic")
	}
}

func TestCANNConvNarrowerThanCANNGemm(t *testing.T) {
	h := hw.Ascend910()
	gemm := CANN(h)
	conv := CANNConv(h)
	if len(conv.Kernels()) >= len(gemm.Kernels()) {
		t.Fatalf("conv set (%d kernels) should be narrower than GEMM set (%d)",
			len(conv.Kernels()), len(gemm.Kernels()))
	}
}

func TestVendorDegenerateGridDiscount(t *testing.T) {
	v := CuBLAS(hw.A100())
	// A shape whose biggest tile yields a single task: the dispatch must
	// not choose it (the split-K/skinny-kernel switch real libraries have).
	p, err := v.Plan(tensor.GemmShape{M: 108, N: 119, K: 117073})
	if err != nil {
		t.Fatal(err)
	}
	k := p.Regions[0].Kern
	tasks := ((108 + k.UM - 1) / k.UM) * ((119 + k.UN - 1) / k.UN)
	if tasks < 8 {
		t.Fatalf("dispatch chose %v (%d tasks) for a degenerate grid", k, tasks)
	}
}

func TestDietCodeDeterministicPrograms(t *testing.T) {
	lib := cudaLibrary(t)
	ranges := Ranges{M: Range{1, 512}, N: Range{1024, 1024}, K: Range{4096, 4096}}
	d1, err := NewDietCode(lib, ranges)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := NewDietCode(lib, ranges)
	if err != nil {
		t.Fatal(err)
	}
	s := tensor.GemmShape{M: 77, N: 1024, K: 4096}
	p1, err := d1.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := d2.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Regions[0].Kern != p2.Regions[0].Kern {
		t.Fatal("DietCode offline tuning is not deterministic")
	}
}

func TestDietCodeKernelsCarryPenalty(t *testing.T) {
	lib := cudaLibrary(t)
	d, err := NewDietCode(lib, Ranges{M: Range{1, 64}, N: Range{64, 64}, K: Range{64, 64}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := d.Plan(tensor.GemmShape{M: 32, N: 64, K: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Regions[0].Kern.Premium; got != dietCodeGenericityPenalty {
		t.Fatalf("DietCode kernel premium = %g, want %g", got, dietCodeGenericityPenalty)
	}
}

// Kernels exposes the library's kernel set (for reporting).
func (v *Vendor) Kernels() []kernel.MicroKernel {
	out := make([]kernel.MicroKernel, len(v.kernels))
	for i, kr := range v.kernels {
		out[i] = kr.k
	}
	return out
}
