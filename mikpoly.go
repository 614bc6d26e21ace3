// Package mikpoly is a Go reproduction of "Optimizing Dynamic-Shape Neural
// Networks on Accelerators via On-the-Fly Micro-Kernel Polymerization"
// (ASPLOS 2024): a dynamic-shape tensor compiler that generates a set of
// highly optimized fixed-size micro-kernels offline and, when an operator's
// shape becomes known at runtime, polymerizes them on the fly into an
// optimized tensor program guided by a lightweight cost model.
//
// Because no GPU/NPU is attached, the accelerator is a deterministic
// simulator implementing the paper's own hardware abstraction
// H = (P_multi, M_local, M_global); micro-kernels really execute on the CPU
// (float32) so results are verifiable, and the simulator supplies timing.
//
// Basic usage:
//
//	c, err := mikpoly.NewCompiler(mikpoly.A100(), mikpoly.DefaultOptions())
//	if err != nil { ... }
//	a := mikpoly.RandomMatrix(4096, 4096, 1)
//	b := mikpoly.RandomMatrix(4096, 1024, 2)
//	out, err := c.GEMM(a, b) // plans for (4096, 1024, 4096) and executes
//
// The offline stage (NewCompiler) is the expensive step; planning for a new
// runtime shape afterwards is microsecond-scale and cached per shape.
package mikpoly

import (
	"io"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
	"mikpoly/internal/winograd"
)

// Core compiler types.
type (
	// Compiler is the MikPoly dynamic-shape tensor compiler: offline
	// micro-kernel library + online polymerization planner + per-shape
	// program cache.
	Compiler = core.Compiler

	// Hardware is the multi-level accelerator abstraction
	// H = (P_multi, M_local, M_global) of §3.1.
	Hardware = hw.Hardware

	// Options are the offline-stage hyperparameters (n_gen, n_syn, n_mik,
	// n_pred) of §3.3.
	Options = tune.Options

	// Library is the offline-stage output: fixed-size micro-kernels with
	// fitted performance models.
	Library = tune.Library

	// MicroKernel is one fixed-size micro-kernel.
	MicroKernel = kernel.MicroKernel

	// Program is a polymerized tensor program for one runtime shape.
	Program = poly.Program

	// Region is one loop nest of a program (a rectangular output block
	// computed by a single micro-kernel).
	Region = poly.Region

	// Planner is the online polymerization stage (exposed for cost-model
	// and pattern-set configuration).
	Planner = poly.Planner

	// PlanStats reports online-search statistics.
	PlanStats = poly.PlanStats

	// CostModel selects the candidate-scoring model.
	CostModel = poly.CostModel

	// PatternID names a polymerization pattern (Fig. 5).
	PatternID = poly.PatternID

	// SimResult is a simulated execution outcome (makespan, utilization).
	SimResult = sim.Result
)

// Tensor types.
type (
	// Matrix is a dense row-major float32 matrix.
	Matrix = tensor.Matrix

	// Tensor4 is a dense NCHW float32 tensor.
	Tensor4 = tensor.Tensor4

	// GemmShape is a GEMM problem size (M, N, K).
	GemmShape = tensor.GemmShape

	// ConvShape describes a 2-D convolution problem.
	ConvShape = tensor.ConvShape
)

// Cost-model variants (Fig. 12b ablation).
const (
	// CostFull is the paper's cost model: Σ f_wave × f_pipe (Eq. 2).
	CostFull = poly.CostFull
	// CostWaveOnly scores by wave count alone.
	CostWaveOnly = poly.CostWaveOnly
	// CostPipeOnly scores by pipelined-task cost alone.
	CostPipeOnly = poly.CostPipeOnly
	// CostOracle simulates every candidate (reference only; slow).
	CostOracle = poly.CostOracle
)

// NewCompiler runs the offline micro-kernel generation stage for hardware h
// and returns a ready compiler.
func NewCompiler(h Hardware, opt Options) (*Compiler, error) {
	return core.NewCompiler(h, opt)
}

// NewCompilerFromLibrary wraps an existing offline library.
func NewCompilerFromLibrary(lib *Library) *Compiler {
	return core.NewCompilerFromLibrary(lib)
}

// GenerateLibrary runs only the offline stage (S1), for sharing a library
// across compiler variants.
func GenerateLibrary(h Hardware, opt Options) (*Library, error) {
	return tune.Generate(h, opt)
}

// DefaultOptions returns the paper's empirical hyperparameters
// (n_gen=32, n_syn=12, n_mik=40, n_pred=5120).
func DefaultOptions() Options { return tune.DefaultOptions() }

// A100 models the NVIDIA A100 GPU of Table 1.
func A100() Hardware { return hw.A100() }

// A100CUDACores models the A100 restricted to CUDA cores (§5.2.3).
func A100CUDACores() Hardware { return hw.A100CUDACores() }

// Ascend910 models the Huawei Ascend 910A NPU of Table 1.
func Ascend910() Hardware { return hw.Ascend910() }

// GPUPatterns returns the pattern subset used on GPUs (I–II).
func GPUPatterns() []PatternID { return poly.GPUPatterns() }

// NPUPatterns returns the full pattern set used on NPUs (I–IX).
func NPUPatterns() []PatternID { return poly.NPUPatterns() }

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// RandomMatrix fills a matrix with deterministic pseudo-random values.
func RandomMatrix(rows, cols int, seed uint64) *Matrix {
	return tensor.RandomMatrix(rows, cols, seed)
}

// NewTensor4 allocates a zeroed NCHW tensor.
func NewTensor4(n, c, h, w int) *Tensor4 { return tensor.NewTensor4(n, c, h, w) }

// RandomTensor4 fills an NCHW tensor with deterministic pseudo-random values.
func RandomTensor4(n, c, h, w int, seed uint64) *Tensor4 {
	return tensor.RandomTensor4(n, c, h, w, seed)
}

// Gemm is the reference (non-polymerized) GEMM, for validation.
func Gemm(a, b *Matrix) *Matrix { return tensor.Gemm(a, b) }

// ConvRef is the reference direct convolution, for validation.
func ConvRef(in, w *Tensor4, shape ConvShape) *Tensor4 { return tensor.ConvRef(in, w, shape) }

// AllClose reports whether two matrices agree within tolerance.
func AllClose(a, b *Matrix, tol float64) bool { return tensor.AllClose(a, b, tol) }

// SaveLibrary writes an offline-stage artifact as JSON (the compiled
// micro-kernel library plus fitted performance models), so the expensive
// offline stage runs once per platform.
func SaveLibrary(lib *Library, w io.Writer) error { return lib.Save(w) }

// LoadLibrary restores an artifact written by SaveLibrary, validating the
// device description and kernel feasibility.
func LoadLibrary(r io.Reader) (*Library, error) { return tune.Load(r) }

// WinogradConv computes a stride-1 3×3 convolution with the Winograd
// F(2×2, 3×3) fast algorithm (the paper's §7 extension); use
// WinogradApplicable to test eligibility.
func WinogradConv(in, w *Tensor4, shape ConvShape) (*Tensor4, error) {
	return winograd.Conv(in, w, shape)
}

// WinogradApplicable reports whether the Winograd path supports the shape.
func WinogradApplicable(shape ConvShape) bool { return winograd.Applicable(shape) }
