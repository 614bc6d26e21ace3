// Package poly implements MikPoly's online stage S2 (§3.4, Algorithm 1
// lines 7–14): micro-kernel polymerization. Once a GEMM's shape (M, N, K) is
// known at runtime, the planner reorganizes the online loops of the
// two-stage program template into candidate programs using the predefined
// polymerization patterns of Fig. 5, instantiates their parameterized
// micro-kernels from the offline library, estimates each candidate with the
// lightweight cost model Cost(S,H) = Σ f_wave × f_pipe (Eq. 2), and returns
// the cheapest program.
package poly

import (
	"fmt"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// Region is one loop nest R_i of a polymerized program: a box of the
// M×N×K iteration space computed with a single micro-kernel. The paper's
// patterns split only the output plane (KOff = 0, K = shape K); the split-K
// extension also slices the reduction dimension, with partial products
// accumulated into the shared output. Extents need not be multiples of the
// kernel tile — local padding (§3.4) rounds the iteration space up, so any
// shape is legal.
type Region struct {
	// M0, N0 locate the block in the output matrix.
	M0, N0 int
	// M, N are the block extents (unpadded).
	M, N int
	// KOff is the reduction-slice start (0 for output-plane patterns).
	KOff int
	// K is the reduction-slice extent.
	K int
	// Kern is the micro-kernel K̃_i instantiated for this region.
	Kern kernel.MicroKernel
}

// Tiles returns (t1, t2, t3): the tile counts in the M, N and K dimensions
// after local padding.
func (r Region) Tiles() (t1, t2, t3 int) {
	t1 = (r.M + r.Kern.UM - 1) / r.Kern.UM
	t2 = (r.N + r.Kern.UN - 1) / r.Kern.UN
	t3 = (r.K + r.Kern.UK - 1) / r.Kern.UK
	return t1, t2, t3
}

// Tasks returns f_parallel(R_i, K̃_i): the number of pipelined tasks the
// region launches (one per output tile; the reduction loop runs inside a
// task).
func (r Region) Tasks() int {
	t1, t2, _ := r.Tiles()
	return t1 * t2
}

// Empty reports whether the region covers no output.
func (r Region) Empty() bool { return r.M <= 0 || r.N <= 0 }

// Validate checks internal consistency against a program shape.
func (r Region) Validate(shape tensor.GemmShape) error {
	switch {
	case r.Empty():
		return fmt.Errorf("poly: empty region %+v", r)
	case r.M0 < 0 || r.N0 < 0 || r.M0+r.M > shape.M || r.N0+r.N > shape.N:
		return fmt.Errorf("poly: region %+v outside output %v", r, shape)
	case r.KOff < 0 || r.K <= 0 || r.KOff+r.K > shape.K:
		return fmt.Errorf("poly: region reduction slice [%d,%d) outside K=%d", r.KOff, r.KOff+r.K, shape.K)
	case r.Kern.UM <= 0 || r.Kern.UN <= 0 || r.Kern.UK <= 0:
		return fmt.Errorf("poly: region %+v has malformed kernel", r)
	}
	return nil
}

// Program is a polymerized tensor program S for one runtime shape: a list of
// regions that exactly tile the output space.
type Program struct {
	Shape   tensor.GemmShape
	Pattern PatternID
	Regions []Region

	// EstimatedCost is the planner's cost-model value (cycles); zero for
	// hand-built programs.
	EstimatedCost float64

	// HW is the hardware abstraction the program was planned against —
	// the pristine H, or a degraded H' with quarantined PEs removed and
	// bandwidth derated. Execution layers simulate the program on this
	// abstraction, not the pristine device, so a degraded-mode plan runs
	// on the hardware it was priced for. Zero (NumPEs == 0) for
	// hand-built programs; callers fall back to their own device then.
	HW hw.Hardware
}

// Validate checks that the regions are well-formed and exactly partition the
// M×N×K iteration space (no gaps, no overlaps) — the invariant that makes
// polymerized execution, including split-K partial accumulation, correct for
// any shape.
func (p *Program) Validate() error {
	if !p.Shape.Valid() {
		return fmt.Errorf("poly: invalid shape %v", p.Shape)
	}
	if p.Pattern < PatternI || p.Pattern > PatternSplitK {
		return fmt.Errorf("poly: unknown pattern %s", p.Pattern)
	}
	if len(p.Regions) == 0 {
		return fmt.Errorf("poly: program for %v has no regions", p.Shape)
	}
	var volume int64
	for i, r := range p.Regions {
		if err := r.Validate(p.Shape); err != nil {
			return fmt.Errorf("region %d: %w", i, err)
		}
		volume += int64(r.M) * int64(r.N) * int64(r.K)
		for j := 0; j < i; j++ {
			o := p.Regions[j]
			if r.M0 < o.M0+o.M && o.M0 < r.M0+r.M &&
				r.N0 < o.N0+o.N && o.N0 < r.N0+r.N &&
				r.KOff < o.KOff+o.K && o.KOff < r.KOff+r.K {
				return fmt.Errorf("poly: regions %d and %d overlap", j, i)
			}
		}
	}
	want := int64(p.Shape.M) * int64(p.Shape.N) * int64(p.Shape.K)
	if volume != want {
		return fmt.Errorf("poly: regions cover %d iteration-space elements, want %d", volume, want)
	}
	return nil
}

// NumTasks is the total pipelined-task count across regions.
func (p *Program) NumTasks() int {
	n := 0
	for _, r := range p.Regions {
		n += r.Tasks()
	}
	return n
}

// Tasks lowers the program to simulator tasks, region by region in launch
// order (the GPU's dynamic scheduler may overlap the tail of one region with
// the head of the next, exactly the behaviour that shrinks partial waves).
func (p *Program) Tasks(h hw.Hardware) []sim.Task {
	out := make([]sim.Task, 0, p.NumTasks())
	for ri, r := range p.Regions {
		_, _, t3 := r.Tiles()
		task := r.Kern.PipelinedTask(h, t3)
		task.Tag = ri
		for i := 0; i < r.Tasks(); i++ {
			out = append(out, task)
		}
	}
	return out
}

// Simulate executes the program on the simulator substrate and returns the
// measured makespan and utilization — the reproduction's stand-in for a
// hardware run.
func (p *Program) Simulate(h hw.Hardware) sim.Result {
	return sim.Run(h, p.Tasks(h))
}

// String summarizes the program; it is the plan-cache / benchmark
// fingerprint.
func (p *Program) String() string {
	s := fmt.Sprintf("program %v pattern %s:", p.Shape, p.Pattern)
	for _, r := range p.Regions {
		s += fmt.Sprintf(" [%d+%dx%d+%d %v]", r.M0, r.M, r.N0, r.N, r.Kern)
	}
	return s
}
