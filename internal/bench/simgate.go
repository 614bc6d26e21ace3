// Simulator gate: what a simulation of a freshly planned program costs.
//
// Every cold /plan simulates the program it planned, so the event loop is the
// second host layer of a never-seen shape after the planner. This file lowers
// the winners of the planner suite's cold streams to task lists once and
// simulates each: its exact field folds every result bit for bit, its no_grow
// fields are the allocations of one simulation, and its ns_per_op is printed
// (info).
package bench

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tune"
)

// simSuite measures the cold-stream simulations on both devices.
func simSuite(bool, []uint64) ([]Case, []string, error) {
	var out []Case
	for _, c := range []struct {
		name string
		hw   hw.Hardware
	}{
		{"ascend910-cold-stream", hw.Ascend910()},
		{"a100-cold-stream", hw.A100()},
	} {
		lib, err := core.SharedLibrary(c.hw, tune.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		res, err := measureSimStream(c.name, lib)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	return out, nil, nil
}

// measureSimStream simulates the lowered winners of the cold shape stream.
// The no_grow fields average one simulation over a window that covers the
// stream exactly once.
func measureSimStream(name string, lib *tune.Library) (Case, error) {
	p := poly.NewPlanner(lib)
	programs := make([][]sim.Task, coldStreamLen)
	for i, s := range coldStreamShapes() {
		prog, _, err := p.Plan(s)
		if err != nil {
			return Case{}, fmt.Errorf("case %s: %w", name, err)
		}
		programs[i] = prog.Tasks(lib.HW)
	}
	fold := fnv.New64a()
	for _, tasks := range programs {
		foldResult(fold, sim.Run(lib.HW, tasks))
	}
	res := Case{Name: name, Exact: map[string]string{"result_fold": fmt.Sprintf("%016x", fold.Sum64())}}

	next := 0
	allocs, bytes, ns, err := measureOp(0, coldStreamLen, func() error {
		sim.Run(lib.HW, programs[next%coldStreamLen])
		next++
		return nil
	})
	if err != nil {
		return res, err
	}
	res.NoGrow = map[string]int64{"allocs_per_op": allocs, "bytes_per_op": bytes}
	res.Info = map[string]float64{"ns_per_op": ns}
	return res, nil
}

// foldResult writes every field of r to w, floats by their bits.
func foldResult(w io.Writer, r sim.Result) {
	fmt.Fprintf(w, "%x %x %x %x %d %d %d %v %v\n", math.Float64bits(r.Cycles), math.Float64bits(r.BusyPECycles),
		math.Float64bits(r.MemBytesStreamed), math.Float64bits(r.BandwidthDerate),
		r.NumTasks, r.FaultedTasks, r.StrandedTasks, r.PEFaults, r.DeadPEs)
	for _, b := range r.PEBusy {
		fmt.Fprintf(w, "%x ", math.Float64bits(b))
	}
}
