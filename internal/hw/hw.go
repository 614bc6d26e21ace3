// Package hw defines the multi-level accelerator abstraction of MikPoly §3.1:
// H = (P_multi, M_local, M_global). A device is a set of identical processing
// engines (PEs), each with private local memory, sharing a global memory
// whose bandwidth is divided among active PEs. The presets model the two
// platforms of Table 1 — an NVIDIA A100 (PE = SM, M_local = shared
// memory/registers) and a Huawei Ascend 910A (PE = DaVinci core, M_local =
// L1/L0 buffers) — plus an A100 restricted to CUDA cores for the
// DietCode/Nimble comparison of Fig. 10, which excludes Tensor Cores.
package hw

import "fmt"

// Scheduler selects how pipelined tasks are placed onto PEs (§4): GPUs use
// the hardware's dynamic thread-block scheduler, NPUs need a static max-min
// allocation computed by the compiler.
type Scheduler int

const (
	// ScheduleDynamic models a GPU hardware scheduler: any idle PE grabs
	// the next ready task, so regions of a polymerized program overlap.
	ScheduleDynamic Scheduler = iota
	// ScheduleStaticMaxMin models the NPU: tasks are pre-assigned to PEs
	// with a max-min (longest-processing-time-first) allocation.
	ScheduleStaticMaxMin
)

func (s Scheduler) String() string {
	switch s {
	case ScheduleDynamic:
		return "dynamic"
	case ScheduleStaticMaxMin:
		return "static-maxmin"
	default:
		return fmt.Sprintf("Scheduler(%d)", int(s))
	}
}

// Hardware is the abstraction H = (P_multi, M_local, M_global).
type Hardware struct {
	// Name identifies the preset in reports.
	Name string

	// NumPEs is |P_multi|, the number of processing engines.
	NumPEs int

	// LocalMemBytes is the capacity of M_local's staging storage on one
	// PE (shared memory / L1 buffer); micro-kernel operand tiles must fit
	// here.
	LocalMemBytes int

	// AccumBytes is the capacity of the accumulator storage on one PE
	// (the register file on GPUs, the L0C buffer on the DaVinci core);
	// a micro-kernel's output tile must fit here.
	AccumBytes int

	// FlopsPerCyclePE is the peak floating-point operations one PE
	// completes per cycle at 100% efficiency (2 ops per MAC).
	FlopsPerCyclePE float64

	// GlobalBytesPerCycle is the aggregate M_global bandwidth in bytes per
	// cycle; it is shared equally among PEs with in-flight transfers.
	GlobalBytesPerCycle float64

	// GlobalMemBytes is the capacity of M_global (device HBM), the budget
	// graph-level memory planning allocates inter-op tensors against.
	// 0 means unspecified: capacity planning treats the device as
	// unbounded (the per-operator experiments never spill).
	GlobalMemBytes int64

	// L2ReuseFactor is the effective traffic amplification the last-level
	// cache provides: concurrent tasks in the same output row/column band
	// share operand tiles, so DRAM sees only 1/L2ReuseFactor of the
	// per-PE load bytes. Both platforms carry a sizable L2 (40 MiB on
	// A100, 32 MiB on Ascend 910).
	L2ReuseFactor float64

	// ClockHz converts cycles to seconds for TFLOPS-style reporting.
	ClockHz float64

	// InputBytes / OutputBytes are element sizes of operands and results
	// (fp16 in, fp32 accumulate/out on both evaluated platforms).
	InputBytes  int
	OutputBytes int

	// MMAAlign is the matrix-unit native tile granularity (16 for both
	// Tensor Cores and the DaVinci cube unit); tile sizes that are not
	// multiples of it pay an efficiency penalty, and 1 disables the
	// matrix unit (CUDA-core preset).
	MMAAlign int

	// TaskStartupCycles is the fixed cost of launching one pipelined task
	// on a PE (pipeline fill: first load before compute can start).
	TaskStartupCycles float64

	// Scheduler is the task placement policy.
	Scheduler Scheduler
}

// Validate reports whether the description is internally consistent.
func (h Hardware) Validate() error {
	switch {
	case h.NumPEs <= 0:
		return fmt.Errorf("hw %q: NumPEs must be positive, got %d", h.Name, h.NumPEs)
	case h.LocalMemBytes <= 0:
		return fmt.Errorf("hw %q: LocalMemBytes must be positive, got %d", h.Name, h.LocalMemBytes)
	case h.AccumBytes <= 0:
		return fmt.Errorf("hw %q: AccumBytes must be positive, got %d", h.Name, h.AccumBytes)
	case h.FlopsPerCyclePE <= 0:
		return fmt.Errorf("hw %q: FlopsPerCyclePE must be positive, got %g", h.Name, h.FlopsPerCyclePE)
	case h.GlobalBytesPerCycle <= 0:
		return fmt.Errorf("hw %q: GlobalBytesPerCycle must be positive, got %g", h.Name, h.GlobalBytesPerCycle)
	case h.GlobalMemBytes < 0:
		return fmt.Errorf("hw %q: GlobalMemBytes must be non-negative, got %d", h.Name, h.GlobalMemBytes)
	case h.L2ReuseFactor < 1:
		return fmt.Errorf("hw %q: L2ReuseFactor must be >= 1, got %g", h.Name, h.L2ReuseFactor)
	case h.ClockHz <= 0:
		return fmt.Errorf("hw %q: ClockHz must be positive, got %g", h.Name, h.ClockHz)
	case h.InputBytes <= 0:
		return fmt.Errorf("hw %q: InputBytes must be positive, got %d", h.Name, h.InputBytes)
	case h.OutputBytes <= 0:
		return fmt.Errorf("hw %q: OutputBytes must be positive, got %d", h.Name, h.OutputBytes)
	case h.MMAAlign <= 0:
		return fmt.Errorf("hw %q: MMAAlign must be positive, got %d", h.Name, h.MMAAlign)
	case h.TaskStartupCycles < 0:
		return fmt.Errorf("hw %q: TaskStartupCycles must be non-negative", h.Name)
	}
	return nil
}

// PeakFLOPS returns the device peak in FLOP/s.
func (h Hardware) PeakFLOPS() float64 {
	return float64(h.NumPEs) * h.FlopsPerCyclePE * h.ClockHz
}

// FairShareBandwidth is the per-PE global bandwidth when every PE is active —
// the allocation the abstraction assumes when building micro-kernel
// performance models offline (§3.1: "M_global allocates its bandwidth equally
// across PEs").
func (h Hardware) FairShareBandwidth() float64 {
	return h.GlobalBytesPerCycle / float64(h.NumPEs)
}

// CyclesToSeconds converts simulated cycles to wall-clock seconds.
func (h Hardware) CyclesToSeconds(cycles float64) float64 {
	return cycles / h.ClockHz
}

// A100 models the NVIDIA A100 GPU of Table 1: 108 SMs, 192 KiB of combined
// shared memory + register file per SM, 312 TFLOPS fp16 Tensor Core peak at
// 1.41 GHz, and 1555 GB/s of HBM2e bandwidth.
func A100() Hardware {
	clock := 1.41e9
	return Hardware{
		Name:                "nvidia-a100",
		NumPEs:              108,
		LocalMemBytes:       192 * 1024,
		AccumBytes:          256 * 1024,           // 64K 32-bit registers per SM
		FlopsPerCyclePE:     312e12 / 108 / clock, // ≈2048 FLOP/cycle/SM
		GlobalBytesPerCycle: 1555e9 / clock,       // ≈1103 B/cycle
		GlobalMemBytes:      40 << 30,             // 40 GiB HBM2e
		L2ReuseFactor:       4,
		ClockHz:             clock,
		InputBytes:          2, // fp16 operands
		OutputBytes:         4, // fp32 accumulate
		MMAAlign:            16,
		TaskStartupCycles:   1200,
		Scheduler:           ScheduleDynamic,
	}
}

// A100CUDACores models the A100 with Tensor Cores disabled (19.5 TFLOPS fp32
// CUDA-core peak), the configuration used for the DietCode/Nimble comparison
// in §5.2.3 since those compilers target CUDA cores only.
func A100CUDACores() Hardware {
	h := A100()
	h.Name = "nvidia-a100-cudacores"
	h.FlopsPerCyclePE = 19.5e12 / 108 / h.ClockHz // ≈128 FLOP/cycle/SM
	h.InputBytes = 4                              // fp32 operands
	h.MMAAlign = 1                                // no matrix unit
	return h
}

// Ascend910 models the Huawei Ascend 910A NPU of Table 1: 32 DaVinci cores,
// 1 MiB L1 buffer per core, 256 TFLOPS fp16 cube peak at 1 GHz, 1200 GB/s
// HBM bandwidth, and compiler-directed static task allocation.
func Ascend910() Hardware {
	clock := 1.0e9
	return Hardware{
		Name:                "ascend-910a",
		NumPEs:              32,
		LocalMemBytes:       1024 * 1024,
		AccumBytes:          256 * 1024,          // L0C output buffer
		FlopsPerCyclePE:     256e12 / 32 / clock, // 8192 FLOP/cycle/core
		GlobalBytesPerCycle: 1200e9 / clock,      // 1200 B/cycle
		GlobalMemBytes:      32 << 30,            // 32 GiB HBM
		L2ReuseFactor:       4,
		ClockHz:             clock,
		InputBytes:          2,
		OutputBytes:         4,
		MMAAlign:            16,
		TaskStartupCycles:   2500,
		Scheduler:           ScheduleStaticMaxMin,
	}
}

// ByName resolves a preset from the names the commands accept: a100 (or
// A100), a100cuda (or a100-cuda), and ascend910 (or npu).
func ByName(name string) (Hardware, error) {
	switch name {
	case "a100", "A100":
		return A100(), nil
	case "a100cuda", "a100-cuda":
		return A100CUDACores(), nil
	case "ascend910", "npu":
		return Ascend910(), nil
	default:
		return Hardware{}, fmt.Errorf("unknown hardware %q (want a100, a100cuda or ascend910)", name)
	}
}
