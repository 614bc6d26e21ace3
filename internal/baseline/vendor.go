package baseline

import (
	"fmt"
	"math"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// kernelRef pairs a vendor kernel with its pre-measured cost density, the
// knowledge a vendor's dispatch heuristic has about its own routines.
type kernelRef struct {
	k kernel.MicroKernel
	// cyclesPerFLOP is the fair-share pipelined cost per floating-point
	// operation, measured once at library build time.
	cyclesPerFLOP float64
}

// Vendor models a hand-crafted vendor library (cuBLAS, cuDNN, CANN): a
// small fixed set of aggressively tuned kernels and a dispatch heuristic
// that picks the kernel minimizing padded work weighted by kernel speed.
// The heuristic knows nothing about wave quantization on the concrete
// device — the "imbalance" blind spot of §6 — and it cannot compose
// kernels, so ragged shapes pay full padding on the single chosen tile.
type Vendor struct {
	name    string
	hw      hw.Hardware
	kernels []kernelRef
}

// vendorConfig hand-tunes the internal schedule for a vendor tile the way a
// library team would: best measured schedule at a representative depth.
func vendorConfig(h hw.Hardware, um, un, uk int, premium float64) (kernel.MicroKernel, bool) {
	best := kernel.MicroKernel{}
	bestCost := math.Inf(1)
	for _, stages := range []int{4, 3, 2, 1} {
		for _, vec := range []int{8, 4, 2, 1} {
			k := kernel.MicroKernel{UM: um, UN: un, UK: uk,
				Cfg: kernel.Config{Stages: stages, Vec: vec}, Premium: premium}
			if !k.Feasible(h) {
				continue
			}
			c := tune.MeasureTaskCost(h, k, 8)
			if c < bestCost {
				bestCost = c
				best = k
			}
		}
	}
	return best, !math.IsInf(bestCost, 1)
}

// newVendor assembles a library from tile descriptors, dropping tiles that
// do not fit the device.
func newVendor(name string, h hw.Hardware, tiles [][3]int, premium float64) *Vendor {
	v := &Vendor{name: name, hw: h}
	for _, t := range tiles {
		k, ok := vendorConfig(h, t[0], t[1], t[2], premium)
		if !ok {
			continue
		}
		flops := 8 * 2 * float64(t[0]) * float64(t[1]) * float64(t[2])
		v.kernels = append(v.kernels, kernelRef{
			k:             k,
			cyclesPerFLOP: tune.MeasureTaskCost(h, k, 8) / flops,
		})
	}
	if len(v.kernels) == 0 {
		panic(fmt.Sprintf("baseline: no feasible vendor kernels for %s", h.Name))
	}
	return v
}

// CuBLAS returns the GPU GEMM vendor library analog. The tile list mirrors
// the cuBLAS fp16 Tensor-Core kernel families.
func CuBLAS(h hw.Hardware) *Vendor {
	return newVendor("cuBLAS", h, [][3]int{
		{256, 128, 32}, {128, 256, 32}, {128, 128, 32}, {128, 128, 64},
		{128, 64, 32}, {64, 128, 32}, {96, 96, 32}, {64, 64, 32},
		{64, 64, 64}, {32, 64, 32}, {64, 32, 32}, {32, 32, 64},
		// Skinny and GEMV-flavoured kernels for degenerate dimensions.
		{16, 128, 64}, {128, 16, 64}, {16, 64, 64}, {64, 16, 64},
		{16, 16, 64}, {32, 16, 128}, {16, 32, 128},
	}, 1.06)
}

// CuDNN returns the GPU convolution vendor library analog (implicit-GEMM
// kernel families; convolutions reach it through the GEMM lowering).
func CuDNN(h hw.Hardware) *Vendor {
	// The implicit-GEMM kernel families are tuned for standard ImageNet
	// layer shapes; the set is narrower than the GEMM library's, which is
	// why dynamic channel counts and batch sizes hurt more (Fig. 6's
	// larger convolution speedups).
	return newVendor("cuDNN", h, [][3]int{
		{256, 128, 32}, {128, 128, 32}, {128, 64, 32}, {64, 128, 64},
		{128, 128, 64}, {64, 64, 32}, {64, 64, 64},
	}, 1.05)
}

// CANN returns the Ascend NPU vendor GEMM library analog: tiles matched to
// the 1 MiB L1 and the wide cube unit, including the skinny variants the
// matmul routine dispatches for degenerate dimensions, and a slightly lower
// hand-tuning premium than the more mature CUDA stack.
func CANN(h hw.Hardware) *Vendor {
	return newVendor("CANN", h, [][3]int{
		{256, 256, 64}, {256, 128, 64}, {128, 256, 64}, {128, 128, 128},
		{128, 128, 64}, {256, 256, 128}, {64, 64, 64}, {64, 256, 64},
		{256, 64, 64}, {32, 256, 128}, {64, 128, 128}, {32, 64, 128},
		{64, 32, 128}, {16, 256, 64}, {256, 16, 64}, {32, 32, 128},
		{16, 64, 128}, {64, 16, 128}, {16, 16, 128},
	}, 1.04)
}

// CANNConv returns the Ascend convolution routine analog. Like cuDNN, the
// conv kernel families are much narrower than the GEMM library's — they are
// tuned for standard CNN layer geometries — which is why dynamic channel
// counts open a wider gap on convolution (Fig. 7: 1.41× vs 1.10×).
func CANNConv(h hw.Hardware) *Vendor {
	v := newVendor("CANN", h, [][3]int{
		{256, 256, 64}, {256, 128, 64}, {128, 256, 64}, {128, 128, 128},
		{128, 128, 64}, {64, 64, 64},
	}, 1.04)
	return v
}

// Name implements Planner.
func (v *Vendor) Name() string { return v.name }

// Plan implements the dispatch heuristic: minimize padded work × per-kernel
// cost density, discounted when the grid is too small to occupy the device
// (vendor libraries switch to smaller or split-K kernels for degenerate
// grids). The heuristic is padding- and occupancy-aware but oblivious to
// wave *quantization* — a grid of 1.2 waves scores the same as 1.0 waves,
// which is exactly the imbalance MikPoly's polymerization removes (§6).
func (v *Vendor) Plan(shape tensor.GemmShape) (*poly.Program, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("baseline %s: invalid shape %v", v.name, shape)
	}
	best := v.kernels[0]
	bestScore := math.Inf(1)
	for _, kr := range v.kernels {
		k := kr.k
		padded := float64(roundUpTo(shape.M, k.UM)) * float64(roundUpTo(shape.N, k.UN)) *
			float64(roundUpTo(shape.K, k.UK))
		tasks := ((shape.M + k.UM - 1) / k.UM) * ((shape.N + k.UN - 1) / k.UN)
		// Degenerate-grid discount: the dispatch tables know that a grid
		// far below device width is catastrophic (they switch to split-K
		// or skinny kernels there), but they tolerate moderate
		// under-occupancy and any wave quantization — the imbalance
		// MikPoly exploits.
		underutil := math.Max(1, float64(v.hw.NumPEs)/4/float64(tasks))
		score := padded * kr.cyclesPerFLOP * underutil
		if score < bestScore {
			bestScore = score
			best = kr
		}
	}
	return singleKernelProgram(shape, best)
}

func roundUpTo(n, align int) int { return (n + align - 1) / align * align }
