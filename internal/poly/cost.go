package poly

import "mikpoly/internal/tune"

// WaveCount returns f_wave = ceil(tasks / pes): the number of scheduling
// waves a task grid needs on pes processing engines. This is THE wave-count
// definition — the planner's cost model, the Explain breakdown and the
// split-K scorer all call it, so the three can never drift apart (they used
// to each inline their own ceil). Integer arithmetic keeps it exact for any
// representable task count.
func WaveCount(tasks, pes int) float64 {
	if pes <= 0 {
		panic("poly: wave count with no processing engines")
	}
	if tasks <= 0 {
		return 0
	}
	return float64((tasks + pes - 1) / pes)
}

// ProgramCost evaluates the full cost model (Eq. 2) for an already-built
// program against a library — the authoritative scorer the planner's
// incremental search must agree with. No served path calls it: it is the
// oracle of TestExplainAgreesWithPlannerCost, TestSplitKCostAgreement and the
// sweep ≡ reference checks (exportOracles in the root package). Output-plane
// patterns sum waves×pipe per region; split-K regions co-run over one shared
// output, so the wave term covers the combined grid and the pipe term is the
// slowest slice.
func ProgramCost(prog *Program, lib *tune.Library) float64 {
	if prog.Pattern == PatternSplitK {
		total := 0
		maxPipe := 0.0
		for _, r := range prog.Regions {
			total += r.Tasks()
			_, _, t3 := r.Tiles()
			if c := lib.PredictTask(r.Kern, t3); c > maxPipe {
				maxPipe = c
			}
		}
		return WaveCount(total, lib.HW.NumPEs) * maxPipe
	}
	var sum float64
	for _, r := range prog.Regions {
		_, _, t3 := r.Tiles()
		sum += WaveCount(r.Tasks(), lib.HW.NumPEs) * lib.PredictTask(r.Kern, t3)
	}
	return sum
}
