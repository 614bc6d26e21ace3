// Package sim is the accelerator substrate of the reproduction: a
// deterministic, event-driven simulator for the multi-level abstraction
// H = (P_multi, M_local, M_global) of MikPoly §3.1. Work arrives as
// *pipelined tasks* (§3.3): each task runs on a single PE, overlapping the
// streaming of its operands from M_global with compute on M_local, after a
// fixed pipeline-fill startup. Global memory bandwidth is shared equally
// among tasks with in-flight transfers (recomputed whenever the active set
// changes), which is what produces the memory-bound behaviour and the
// load-imbalance "last wave" effect of the paper's Fig. 15.
package sim

import "math"

// Task is one pipelined task: t instances of a micro-kernel executed on a
// single PE inside a reduction loop, with loads overlapped against compute.
type Task struct {
	// ComputeCycles is the total busy-compute time of the task at rate 1
	// cycle per cycle (all kernel instances plus fixed per-instance issue
	// overhead).
	ComputeCycles float64

	// MemBytes is the total traffic the task streams to/from M_global
	// (operand loads for every instance plus the single result store).
	MemBytes float64

	// StartupCycles is the pipeline-fill latency before compute and
	// streaming begin (the first load of the software pipeline).
	StartupCycles float64

	// Tag identifies the program region (R_i) the task belongs to, for
	// tracing.
	Tag int
}

// PipelinedTaskCycles returns the cost of executing one task in isolation
// with a constant bandwidth share of bw bytes/cycle — the quantity the
// offline stage measures when learning g_predict (§3.3). With the pipeline
// full, the task is limited by whichever of compute or streaming is slower.
func PipelinedTaskCycles(t Task, bw float64) float64 {
	if bw <= 0 {
		panic("sim: bandwidth share must be positive")
	}
	return t.StartupCycles + math.Max(t.ComputeCycles, t.MemBytes/bw)
}

// Result summarizes a simulated program execution.
type Result struct {
	// Cycles is the makespan: time until the last task completes.
	Cycles float64

	// BusyPECycles sums, over PEs, the time each PE had a task resident.
	BusyPECycles float64

	// NumTasks is the number of pipelined tasks executed.
	NumTasks int

	// MemBytesStreamed is the total M_global traffic the executed tasks
	// streamed (operand loads plus result stores).
	MemBytesStreamed float64

	// FaultedTasks counts tasks that reported a transient execution fault
	// (only non-zero under fault injection, RunWithFaults). A faulted
	// task's output must be discarded and the work re-planned/re-run by
	// the layer above.
	FaultedTasks int

	// PEBusy is the per-PE busy time; its spread reveals load imbalance.
	PEBusy []float64

	// PEFaults counts faulted tasks per PE (nil when no task faulted). A
	// concentration of faults on few PEs is the health registry's signal
	// that the hardware — not the workload — is degrading.
	PEFaults []int

	// DeadPEs lists PEs that died mid-run (Faults.PEDeathCycle), sorted.
	// Work in flight on a dying PE is lost and counted in FaultedTasks.
	DeadPEs []int

	// StrandedTasks counts tasks that never ran because their PE died:
	// statically assigned residual lists, or (if every PE died) the shared
	// queue's leftovers. Stranded work, like faulted work, invalidates the
	// run's output.
	StrandedTasks int

	// BandwidthDerate is the brownout factor if a brownout window
	// overlapped the run (0 when none did) — surfaced so the health layer
	// can distinguish bandwidth degradation from compute faults.
	BandwidthDerate float64
}

// Clean reports whether the run produced a trustworthy result: no faulted
// and no stranded tasks.
func (r Result) Clean() bool { return r.FaultedTasks == 0 && r.StrandedTasks == 0 }

// Efficiency is the fraction of PE-time spent busy until the makespan — the
// analog of the sm_efficiency counter in the paper's Table 9.
func (r Result) Efficiency() float64 {
	if r.Cycles <= 0 || len(r.PEBusy) == 0 {
		return 0
	}
	return r.BusyPECycles / (r.Cycles * float64(len(r.PEBusy)))
}

// Waves returns the wave count ceil(numTasks/numPEs) — the quantity the
// online cost model's f_wave term estimates.
func (r Result) Waves() int {
	if len(r.PEBusy) == 0 {
		return 0
	}
	return (r.NumTasks + len(r.PEBusy) - 1) / len(r.PEBusy)
}

// Imbalance computes the relative busy-time spread (max − min) / max of a
// per-PE busy series: 0 is a perfectly balanced execution, values near 1 mean
// some PEs idled through almost the whole run — the "last wave" effect the
// polymerized programs exist to shrink. An all-idle or empty series reports
// 0. The graph runtime scores its cumulative per-PE counters with it.
func Imbalance(peBusy []float64) float64 {
	if len(peBusy) == 0 {
		return 0
	}
	min, max := peBusy[0], peBusy[0]
	for _, b := range peBusy[1:] {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if max <= 0 {
		return 0
	}
	return (max - min) / max
}
