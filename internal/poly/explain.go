package poly

import "mikpoly/internal/tune"

// RegionCost is the per-region breakdown of Eq. 2 for one program — the
// structured form of what cmd/mikexplain prints.
type RegionCost struct {
	// Region is the loop nest being costed.
	Region Region
	// T1, T2, T3 are the tile counts after local padding.
	T1, T2, T3 int
	// Tasks is f_parallel: the pipelined-task count.
	Tasks int
	// Waves is f_wave: ceil(Tasks / |P_multi|).
	Waves float64
	// Pipe is f_pipe: g_predict(T3) in cycles.
	Pipe float64
	// Cost is Waves × Pipe.
	Cost float64
}

// Explain evaluates Eq. 2 term by term for a program against a library —
// the developer view of why the cost model preferred this strategy. Wave
// counts come from the shared WaveCount helper, so the breakdown can never
// drift from the planner's scoring; for output-plane patterns
// TotalCost(Explain(prog, lib)) equals ProgramCost(prog, lib) exactly, while
// split-K programs co-run their regions and must be totalled with
// ProgramCost instead.
func Explain(prog *Program, lib *tune.Library) []RegionCost {
	out := make([]RegionCost, 0, len(prog.Regions))
	for _, r := range prog.Regions {
		t1, t2, t3 := r.Tiles()
		tasks := r.Tasks()
		waves := WaveCount(tasks, lib.HW.NumPEs)
		pipe := lib.PredictTask(r.Kern, t3)
		out = append(out, RegionCost{
			Region: r,
			T1:     t1, T2: t2, T3: t3,
			Tasks: tasks,
			Waves: waves,
			Pipe:  pipe,
			Cost:  waves * pipe,
		})
	}
	return out
}

// TotalCost sums the breakdown. No served path calls it: it is the oracle of
// TestExplainAgreesWithPlannerCost and TestExplainMatchesEstimatedCost
// (exportOracles in the root package).
func TotalCost(costs []RegionCost) float64 {
	var sum float64
	for _, c := range costs {
		sum += c.Cost
	}
	return sum
}
