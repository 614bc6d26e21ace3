package tune

import (
	"math"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/perfmodel"
)

// smallOpts keeps unit tests fast while exercising the whole pipeline.
func smallOpts() Options { return Options{NGen: 8, NSyn: 9, NMik: 12, NPred: 256} }

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Options{
		{NGen: 0, NSyn: 1, NMik: 1, NPred: 1},
		{NGen: 1, NSyn: -1, NMik: 1, NPred: 1},
		{NGen: 1, NSyn: 1, NMik: 0, NPred: 1},
		{NGen: 1, NSyn: 1, NMik: 1, NPred: 0},
	}
	for i, o := range bad {
		if o.Validate() == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestDefaultOptionsMatchPaper(t *testing.T) {
	o := DefaultOptions()
	if o.NGen != 32 || o.NSyn != 12 || o.NMik != 40 || o.NPred != 5120 {
		t.Fatalf("defaults %+v do not match §3.3/§5.1", o)
	}
}

func TestSyntheticShapes(t *testing.T) {
	shapes := SyntheticShapes(12)
	// Stride-3 grid over 2^0..2^12 → sizes {1,8,64,512,4096} → 125 shapes.
	if len(shapes) != 125 {
		t.Fatalf("len = %d, want 125", len(shapes))
	}
	seen4096 := false
	for _, s := range shapes {
		for _, d := range s {
			if d == 4096 {
				seen4096 = true
			}
			if d < 1 || d > 4096 {
				t.Fatalf("size %d outside [1, 2^12]", d)
			}
		}
	}
	if !seen4096 {
		t.Fatal("max synthetic size missing")
	}
}

func TestGenerateSmall(t *testing.T) {
	lib, err := Generate(hw.A100(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Kernels) != 12 {
		t.Fatalf("retained %d kernels, want 12", len(lib.Kernels))
	}
	seen := map[kernel.MicroKernel]bool{}
	for _, k := range lib.Kernels {
		if !k.Feasible(lib.HW) {
			t.Fatalf("retained infeasible kernel %v", k)
		}
		if k.UM%16 != 0 || k.UN%16 != 0 || k.UK%16 != 0 {
			t.Fatalf("tile %v not on the 16-grid", k)
		}
		if k.UM > 16*8 || k.UN > 16*8 || k.UK > 16*8 {
			t.Fatalf("tile %v outside NGen grid", k)
		}
		if seen[k] {
			t.Fatalf("duplicate kernel %v", k)
		}
		seen[k] = true
		if lib.Model(k) == nil {
			t.Fatalf("kernel %v has no fitted model", k)
		}
	}
}

func TestGenerateCoversSmallAndLargeTiles(t *testing.T) {
	lib, err := Generate(hw.A100(), Options{NGen: 16, NSyn: 12, NMik: 24, NPred: 256})
	if err != nil {
		t.Fatal(err)
	}
	var minVol, maxVol float64
	minVol = math.Inf(1)
	for _, k := range lib.Kernels {
		v := float64(k.UM) * float64(k.UN) * float64(k.UK)
		if v < minVol {
			minVol = v
		}
		if v > maxVol {
			maxVol = v
		}
	}
	// The library must retain both specialists for large shapes (big
	// tiles) and for small shapes (small tiles); a 64× volume spread
	// indicates real diversity.
	if maxVol/minVol < 64 {
		t.Fatalf("library tile volumes too uniform: min=%g max=%g", minVol, maxVol)
	}
	if maxVol < 128*128*32 {
		t.Fatalf("no large tiles retained (max volume %g)", maxVol)
	}
}

func TestModelsMatchMeasurements(t *testing.T) {
	lib, err := Generate(hw.A100(), Options{NGen: 4, NSyn: 6, NMik: 5, NPred: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range lib.Kernels {
		for _, tt := range []int{1, 3, 7, 50, 511} {
			meas := MeasureTaskCost(lib.HW, k, tt)
			pred := lib.PredictTask(k, tt)
			if math.Abs(pred-meas)/meas > 0.05 {
				t.Fatalf("%v t=%d: predicted %g, measured %g", k, tt, pred, meas)
			}
		}
	}
}

func TestPredictTaskForeignKernelFallsBack(t *testing.T) {
	lib, err := Generate(hw.A100(), Options{NGen: 2, NSyn: 3, NMik: 2, NPred: 64})
	if err != nil {
		t.Fatal(err)
	}
	foreign := kernel.New(48, 48, 48, kernel.Config{Stages: 2, Vec: 4})
	if lib.Model(foreign) != nil {
		t.Skip("foreign kernel unexpectedly in library")
	}
	want := MeasureTaskCost(lib.HW, foreign, 9)
	if got := lib.PredictTask(foreign, 9); got != want {
		t.Fatalf("fallback = %g, want %g", got, want)
	}
}

func TestGenerateNPUUsesBiggerTiles(t *testing.T) {
	// The Ascend cube unit is 4× wider than a Tensor Core, so the best
	// NPU kernels should have a larger average tile volume than GPU ones.
	gpu, err := Generate(hw.A100(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	npu, err := Generate(hw.Ascend910(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	maxVol := func(ks []kernel.MicroKernel) float64 {
		var v float64
		for _, k := range ks {
			if x := float64(k.UM) * float64(k.UN) * float64(k.UK); x > v {
				v = x
			}
		}
		return v
	}
	if maxVol(npu.Kernels) <= maxVol(gpu.Kernels) {
		t.Fatalf("largest NPU tile (%g) should exceed largest GPU tile (%g): 1MiB vs 192KiB M_local",
			maxVol(npu.Kernels), maxVol(gpu.Kernels))
	}
}

func TestGenerateInvalidInputs(t *testing.T) {
	if _, err := Generate(hw.A100(), Options{}); err == nil {
		t.Fatal("zero options must fail")
	}
	bad := hw.A100()
	bad.NumPEs = 0
	if _, err := Generate(bad, smallOpts()); err == nil {
		t.Fatal("invalid hardware must fail")
	}
}

func TestMeasureTaskCostMonotoneInT(t *testing.T) {
	h := hw.A100()
	k := kernel.New(128, 128, 32, kernel.Config{Stages: 2, Vec: 4})
	prev := 0.0
	for tt := 1; tt <= 64; tt *= 2 {
		c := MeasureTaskCost(h, k, tt)
		if c <= prev {
			t.Fatalf("cost not increasing at t=%d", tt)
		}
		prev = c
	}
}

// Parallel generation must stay deterministic: two runs produce identical
// libraries kernel for kernel.
func TestGenerateDeterministicAcrossRuns(t *testing.T) {
	a, err := Generate(hw.A100(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(hw.A100(), smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Kernels) != len(b.Kernels) {
		t.Fatalf("library sizes differ: %d vs %d", len(a.Kernels), len(b.Kernels))
	}
	for i := range a.Kernels {
		if a.Kernels[i] != b.Kernels[i] {
			t.Fatalf("kernel %d differs across runs: %v vs %v", i, a.Kernels[i], b.Kernels[i])
		}
	}
}

// Model returns the fitted g_predict model for k, or nil if k is not in the
// library.
func (l *Library) Model(k kernel.MicroKernel) *perfmodel.Model { return l.models[k] }
