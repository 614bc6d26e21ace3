// Package kernel defines the fixed-size micro-kernels of MikPoly §3.3. A
// micro-kernel is an instantiation of the micro-kernel template K̃ — the
// innermost (offline) loops of the two-stage GEMM program template — with a
// concrete tile size (uM, uN, uK) and an internal schedule chosen by the
// offline auto-scheduler. Each kernel both
//
//   - executes numerically on the CPU (Execute), so polymerized programs can
//     be validated bit-for-bit against reference GEMM for any runtime shape,
//     and
//   - carries an analytic single-PE timing used by the simulator substrate
//     (PipelinedTask), standing in for the measured cost of the compiled
//     CUDA/CANN binary in the paper.
//
// All MicroKernel fields are comparable, so kernels are usable as map keys.
package kernel

import (
	"fmt"
	"hash/fnv"
	"math"

	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// Config holds the internal schedule knobs the offline auto-scheduler tunes
// for every tile size (the analog of TVM's schedule search over the
// CUTLASS-based template, §4).
type Config struct {
	// Stages is the software-pipeline depth (1 = no double buffering).
	// Deeper pipelines hide more load latency but multiply the M_local
	// footprint of the operand buffers.
	Stages int

	// Vec is the vectorization width of the epilogue/issue path; wider
	// vectors reduce per-instance issue overhead but must divide the
	// accumulator tile evenly.
	Vec int
}

// MicroKernel is one fixed-size micro-kernel K ∈ S_K̃.
type MicroKernel struct {
	// UM, UN, UK are the tile sizes of the offline loops.
	UM, UN, UK int

	// Cfg is the internal schedule selected offline.
	Cfg Config

	// Premium is an efficiency multiplier for hand-tuned provenance:
	// 1.0 for MikPoly-generated kernels, >1 for vendor-library kernels
	// whose hand-written assembly beats compiler output at their sweet
	// spot. It never lifts efficiency above 1.
	Premium float64
}

// New returns a MikPoly-generated kernel with the given tile and schedule.
func New(um, un, uk int, cfg Config) MicroKernel {
	return MicroKernel{UM: um, UN: un, UK: uk, Cfg: cfg, Premium: 1}
}

// String formats the kernel like the paper: micro-kernel(uM, uN, uK).
func (k MicroKernel) String() string {
	return fmt.Sprintf("micro-kernel(%d,%d,%d)s%dv%d", k.UM, k.UN, k.UK, k.Cfg.Stages, k.Cfg.Vec)
}

// Footprint is the M_local staging working set in bytes: Stages copies of
// both operand tiles. The accumulator lives in the separate accumulator
// storage (AccumFootprint).
func (k MicroKernel) Footprint(h hw.Hardware) int {
	return (k.UM*k.UK + k.UK*k.UN) * h.InputBytes * k.Cfg.Stages
}

// AccumFootprint is the fp32 accumulator tile held in the register file /
// L0C buffer for the whole pipelined task.
func (k MicroKernel) AccumFootprint(h hw.Hardware) int {
	return k.UM * k.UN * h.OutputBytes
}

// Feasible reports whether the kernel is well-formed and fits M_local on h.
func (k MicroKernel) Feasible(h hw.Hardware) bool {
	if k.UM <= 0 || k.UN <= 0 || k.UK <= 0 {
		return false
	}
	if k.Cfg.Stages < 1 || k.Cfg.Stages > 4 {
		return false
	}
	switch k.Cfg.Vec {
	case 1, 2, 4, 8:
	default:
		return false
	}
	if k.UN%k.Cfg.Vec != 0 {
		return false
	}
	return k.Footprint(h) <= h.LocalMemBytes && k.AccumFootprint(h) <= h.AccumBytes
}

// roundUp returns n rounded up to a multiple of align.
func roundUp(n, align int) int { return (n + align - 1) / align * align }

// mmaUtil is the fraction of a matrix-unit tile doing useful work when a
// dimension is not a multiple of the unit's native granularity.
func mmaUtil(dim, align int) float64 {
	if align <= 1 {
		return 1
	}
	return float64(dim) / float64(roundUp(dim, align))
}

// jitter returns a deterministic pseudo-random multiplier in [0.96, 1.04]
// keyed by the kernel parameters and platform — the irreducible
// configuration-specific variation that makes offline auto-tuning
// non-trivial (two analytically identical schedules measure differently on
// real hardware).
func (k MicroKernel) jitter(h hw.Hardware) float64 {
	f := fnv.New64a()
	fmt.Fprintf(f, "%d/%d/%d/%d/%d/%s", k.UM, k.UN, k.UK, k.Cfg.Stages, k.Cfg.Vec, h.Name)
	u := f.Sum64()
	return 0.96 + 0.08*float64(u%(1<<20))/float64(1<<20)
}

// Efficiency is the fraction of a PE's peak FLOP rate this kernel sustains
// with its pipeline full. It combines:
//
//   - matrix-unit alignment waste (tiles not multiple of MMAAlign);
//   - pipeline feeding: small reduction tiles cannot keep the matrix unit
//     busy — the knee scales with PE width, so the DaVinci cube demands
//     larger tiles than a Tensor Core, which demands larger tiles than
//     CUDA cores;
//   - software-pipeline depth (Stages);
//   - local-memory pressure (footprints near capacity throttle occupancy);
//   - deterministic per-configuration jitter;
//   - the hand-tuning premium for vendor kernels.
func (k MicroKernel) Efficiency(h hw.Hardware) float64 {
	if !k.Feasible(h) {
		return 0
	}
	align := mmaUtil(k.UM, h.MMAAlign) * mmaUtil(k.UN, h.MMAAlign) * mmaUtil(k.UK, h.MMAAlign)

	ai := float64(k.UM) * float64(k.UN) * float64(k.UK) /
		(float64(k.UM)*float64(k.UK) + float64(k.UK)*float64(k.UN))
	knee := math.Max(1, h.FlopsPerCyclePE/128)
	pipe := ai / (ai + knee)

	stages := float64(k.Cfg.Stages) / (float64(k.Cfg.Stages) + 0.35)

	occ := 1.0
	pressure := math.Max(
		float64(k.Footprint(h))/float64(h.LocalMemBytes),
		float64(k.AccumFootprint(h))/float64(h.AccumBytes))
	if pressure > 0.5 {
		occ = 1 - 0.3*(pressure-0.5)/0.5
	}

	premium := k.Premium
	if premium <= 0 {
		premium = 1
	}
	return math.Min(1, align*pipe*stages*occ*k.jitter(h)*premium)
}

// InstanceComputeCycles is the busy time of one kernel instance on a PE:
// the matrix-unit time at the sustained efficiency plus the per-instance
// issue/epilogue overhead governed by the vector width.
func (k MicroKernel) InstanceComputeCycles(h hw.Hardware) float64 {
	eff := k.Efficiency(h)
	if eff <= 0 {
		return math.Inf(1)
	}
	mma := 2 * float64(k.UM) * float64(k.UN) * float64(k.UK) / (h.FlopsPerCyclePE * eff)
	issue := float64(k.UM) * float64(k.UN) / (16 * float64(k.Cfg.Vec))
	return mma + issue
}

// InstanceLoadBytes is the DRAM traffic of one instance: both operand tiles
// (the accumulator stays resident in M_local across the reduction loop,
// §3.3), discounted by the L2 reuse concurrent tasks get on shared operand
// bands.
func (k MicroKernel) InstanceLoadBytes(h hw.Hardware) float64 {
	return float64(k.UM*k.UK+k.UK*k.UN) * float64(h.InputBytes) / h.L2ReuseFactor
}

// StoreBytes is the one-time result write-back of a pipelined task.
func (k MicroKernel) StoreBytes(h hw.Hardware) float64 {
	return float64(k.UM*k.UN) * float64(h.OutputBytes)
}

// StartupCycles is the pipeline-fill cost: deeper pipelines amortize the
// fixed task launch latency better.
func (k MicroKernel) StartupCycles(h hw.Hardware) float64 {
	return h.TaskStartupCycles * 2 / (1 + float64(k.Cfg.Stages))
}

// PipelinedTask builds the simulator task for t instances of k executed in a
// reduction loop on one PE (t = t3 in the paper's notation).
func (k MicroKernel) PipelinedTask(h hw.Hardware, t int) sim.Task {
	if t < 1 {
		panic(fmt.Sprintf("kernel: pipelined task needs t >= 1, got %d", t))
	}
	return sim.Task{
		ComputeCycles: float64(t) * k.InstanceComputeCycles(h),
		MemBytes:      float64(t)*k.InstanceLoadBytes(h) + k.StoreBytes(h),
		StartupCycles: k.StartupCycles(h),
	}
}

// Execute accumulates dst += a×b for one kernel instance. dst must be
// UM×UN, a UM×UK, b UK×UN — callers guarantee this via local padding, so
// the kernel body itself has no boundary checks (the CUTLASS-style padding
// property of §3.4). The 4-wide register blocking mirrors the structure of
// the generated epilogue.
func (k MicroKernel) Execute(dst, a, b *tensor.Matrix) {
	if dst.Rows != k.UM || dst.Cols != k.UN || a.Rows != k.UM || a.Cols != k.UK ||
		b.Rows != k.UK || b.Cols != k.UN {
		panic(fmt.Sprintf("kernel %v: operand shapes dst=%dx%d a=%dx%d b=%dx%d",
			k, dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < k.UM; i++ {
		arow := a.Row(i)
		crow := dst.Row(i)
		for kk := 0; kk < k.UK; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Row(kk)
			j := 0
			for ; j+4 <= k.UN; j += 4 {
				crow[j] += av * brow[j]
				crow[j+1] += av * brow[j+1]
				crow[j+2] += av * brow[j+2]
				crow[j+3] += av * brow[j+3]
			}
			for ; j < k.UN; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}
