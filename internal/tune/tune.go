// Package tune implements MikPoly's offline stage S1 (§3.3, Algorithm 1
// lines 1–6): micro-kernel generation. From the GEMM micro-kernel template it
//
//  1. enumerates candidate tile sizes {16·i | i ∈ [1, n_gen]} per dimension,
//  2. auto-tunes the internal schedule (pipeline depth, vector width) of each
//     feasible candidate against the simulated PE — the stand-in for the
//     TVM/CUTLASS-template auto-scheduler,
//  3. ranks candidates by their average performance on synthetic test cases
//     with dimension sizes drawn from {2^i | i ∈ [0, n_syn]} using the
//     Pattern-I program structure, retaining the top n_mik, and
//  4. fits a g_predict performance model per retained kernel.
//
// The resulting Library is what the online polymerization stage consumes.
package tune

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/perfmodel"
	"mikpoly/internal/sim"
)

// Options are the offline-stage hyperparameters of §3.3. The paper's
// empirical setting is NGen=32, NSyn=12, NMik=40 (Fig. 13 studies their
// sensitivity).
type Options struct {
	// NGen bounds the tile-size grid: each dimension ranges over
	// {16·i | i ∈ [1, NGen]}.
	NGen int

	// NSyn bounds the synthetic workload sizes {2^i | i ∈ [0, NSyn]} used
	// to rank candidates.
	NSyn int

	// NMik is the number of top-ranked micro-kernels retained.
	NMik int

	// NPred is the largest pipelined-task instance count measured when
	// fitting g_predict (the paper's n_pred, 5120).
	NPred int
}

// DefaultOptions returns the paper's empirical hyperparameters.
func DefaultOptions() Options {
	return Options{NGen: 32, NSyn: 12, NMik: 40, NPred: 5120}
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	switch {
	case o.NGen < 1:
		return fmt.Errorf("tune: NGen must be >= 1, got %d", o.NGen)
	case o.NSyn < 0:
		return fmt.Errorf("tune: NSyn must be >= 0, got %d", o.NSyn)
	case o.NMik < 1:
		return fmt.Errorf("tune: NMik must be >= 1, got %d", o.NMik)
	case o.NPred < 1:
		return fmt.Errorf("tune: NPred must be >= 1, got %d", o.NPred)
	}
	return nil
}

// Library is the offline-stage output: the retained fixed-size micro-kernels
// S_K̃ (rank order, best first) with their fitted performance models.
type Library struct {
	HW      hw.Hardware
	Opts    Options
	Kernels []kernel.MicroKernel
	models  map[kernel.MicroKernel]*perfmodel.Model

	// modelList is models re-indexed to align with Kernels, so the online
	// planner's inner loop resolves g_predict by array indexing instead of
	// hashing a 6-field struct key. Built by buildIndex at every library
	// construction site (Generate, Load).
	modelList []*perfmodel.Model
}

// ModelAt returns the fitted model for Kernels[i], or nil when the index is
// out of range or the library predates indexing.
func (l *Library) ModelAt(i int) *perfmodel.Model {
	if i < 0 || i >= len(l.modelList) {
		return nil
	}
	return l.modelList[i]
}

// PredictAt is PredictTask for Kernels[i] by index — the planner hot path.
// It falls back to the map path (and from there to the analytic cost) when
// the index carries no model, so it stays a total function.
func (l *Library) PredictAt(i, t int) float64 {
	if m := l.ModelAt(i); m != nil {
		return m.Predict(t)
	}
	if i >= 0 && i < len(l.Kernels) {
		return l.PredictTask(l.Kernels[i], t)
	}
	panic(fmt.Sprintf("tune: PredictAt index %d outside library of %d kernels", i, len(l.Kernels)))
}

// buildIndex (re)derives modelList from Kernels and models.
func (l *Library) buildIndex() {
	l.modelList = make([]*perfmodel.Model, len(l.Kernels))
	for i, k := range l.Kernels {
		l.modelList[i] = l.models[k]
	}
}

// WithHardware returns a view of the library re-targeted at hardware h,
// sharing the kernels and fitted models (the offline stage is not redone).
// This is how the online stage plans against a *degraded* abstraction
// H' = (P_multi − quarantined, M_local, derated M_global): per-PE tile
// feasibility and the g_predict fits depend on the PE itself, which
// quarantining does not change — only the PE count and global bandwidth the
// wave/cost terms see. The receiver is not modified.
func (l *Library) WithHardware(h hw.Hardware) *Library {
	out := *l
	out.HW = h
	return &out
}

// PredictTask returns g_predict(t, K̃, H) for a kernel in the library,
// falling back to the analytic fair-share cost for foreign kernels so that
// cost-model variants remain total functions.
func (l *Library) PredictTask(k kernel.MicroKernel, t int) float64 {
	if m := l.models[k]; m != nil {
		return m.Predict(t)
	}
	return MeasureTaskCost(l.HW, k, t)
}

// MeasureTaskCost is the offline "measurement": the cost of one pipelined
// task with t instances of k on a single PE receiving the fair bandwidth
// share B/|P| (§3.1). In the paper this is a hardware run; here it queries
// the simulator's task model directly.
func MeasureTaskCost(h hw.Hardware, k kernel.MicroKernel, t int) float64 {
	return sim.PipelinedTaskCycles(k.PipelinedTask(h, t), h.FairShareBandwidth())
}

// scheduleCandidates is the internal-schedule search grid of the offline
// auto-scheduler.
func scheduleCandidates() []kernel.Config {
	var out []kernel.Config
	for _, stages := range []int{1, 2, 3, 4} {
		for _, vec := range []int{1, 2, 4, 8} {
			out = append(out, kernel.Config{Stages: stages, Vec: vec})
		}
	}
	return out
}

// autoTuneTile picks the best internal schedule for one tile size by
// measuring a representative pipelined task (t=8) on the simulated PE, the
// analog of compiling and timing schedule variants.
func autoTuneTile(h hw.Hardware, um, un, uk int) (kernel.MicroKernel, bool) {
	best := kernel.MicroKernel{}
	bestCost := math.Inf(1)
	for _, cfg := range scheduleCandidates() {
		k := kernel.New(um, un, uk, cfg)
		if !k.Feasible(h) {
			continue
		}
		c := MeasureTaskCost(h, k, 8)
		if c < bestCost {
			bestCost = c
			best = k
		}
	}
	return best, !math.IsInf(bestCost, 1)
}

// SyntheticShapes returns the ranking workload: GEMM shapes with dimension
// sizes from {2^i | i ∈ [0, nsyn]}, subsampled on a stride-3 grid per
// dimension to keep the offline stage tractable.
func SyntheticShapes(nsyn int) [][3]int {
	var sizes []int
	for i := 0; i <= nsyn; i += 3 {
		sizes = append(sizes, 1<<i)
	}
	if last := 1 << nsyn; len(sizes) == 0 || sizes[len(sizes)-1] != last {
		sizes = append(sizes, last)
	}
	var shapes [][3]int
	for _, m := range sizes {
		for _, n := range sizes {
			for _, k := range sizes {
				shapes = append(shapes, [3]int{m, n, k})
			}
		}
	}
	return shapes
}

// patternICosts returns, for one kernel, the Pattern-I program cost on every
// synthetic shape: waves(t1·t2) × pipelined-task(t3) cycles for shape
// (t1·uM, t2·uN, t3·uK) with local padding.
func patternICosts(h hw.Hardware, k kernel.MicroKernel, shapes [][3]int) []float64 {
	// Hoist the per-instance costs out of the shape loop.
	instCompute := k.InstanceComputeCycles(h)
	instLoad := k.InstanceLoadBytes(h)
	store := k.StoreBytes(h)
	startup := k.StartupCycles(h)
	bw := h.FairShareBandwidth()
	pes := float64(h.NumPEs)

	costs := make([]float64, len(shapes))
	for i, s := range shapes {
		t1 := (s[0] + k.UM - 1) / k.UM
		t2 := (s[1] + k.UN - 1) / k.UN
		t3 := (s[2] + k.UK - 1) / k.UK
		tasks := float64(t1 * t2)
		waves := math.Ceil(tasks / pes)
		pipe := startup + math.Max(float64(t3)*instCompute, (float64(t3)*instLoad+store)/bw)
		costs[i] = waves * pipe
	}
	return costs
}

// rankAndPrune implements the RankAndPrune step of Algorithm 1: candidates
// are scored by their mean performance across the synthetic workloads,
// normalized per shape against the best candidate (so that tiny shapes do
// not drown out large ones), and the top nmik are retained. To guarantee the
// library covers the whole shape range, the per-shape winners — visited from
// the largest synthetic shape down — are granted up to half the slots first.
func rankAndPrune(candidates []kernel.MicroKernel, costs [][]float64, shapes [][3]int, nmik int) []kernel.MicroKernel {
	nShapes := len(shapes)
	best := make([]float64, nShapes)
	winner := make([]int, nShapes)
	for si := 0; si < nShapes; si++ {
		best[si] = math.Inf(1)
		for ci := range candidates {
			if c := costs[ci][si]; c < best[si] {
				best[si] = c
				winner[si] = ci
			}
		}
	}

	score := make([]float64, len(candidates))
	for ci := range candidates {
		var sum float64
		for si := 0; si < nShapes; si++ {
			sum += best[si] / costs[ci][si]
		}
		score[ci] = sum / float64(nShapes)
	}

	// Shape order: largest FLOPs first, so winner slots favor the shapes
	// where specialist kernels matter most.
	order := make([]int, nShapes)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		fa := float64(shapes[order[a]][0]) * float64(shapes[order[a]][1]) * float64(shapes[order[a]][2])
		fb := float64(shapes[order[b]][0]) * float64(shapes[order[b]][1]) * float64(shapes[order[b]][2])
		return fa > fb
	})

	taken := make(map[int]bool)
	var kept []int
	for _, si := range order {
		if len(kept) >= nmik/2 {
			break
		}
		if ci := winner[si]; !taken[ci] {
			taken[ci] = true
			kept = append(kept, ci)
		}
	}

	rest := make([]int, 0, len(candidates))
	for ci := range candidates {
		if !taken[ci] {
			rest = append(rest, ci)
		}
	}
	sort.SliceStable(rest, func(a, b int) bool { return score[rest[a]] > score[rest[b]] })
	for _, ci := range rest {
		if len(kept) >= nmik {
			break
		}
		kept = append(kept, ci)
	}

	// Final library order: by descending overall score.
	sort.SliceStable(kept, func(a, b int) bool { return score[kept[a]] > score[kept[b]] })
	out := make([]kernel.MicroKernel, len(kept))
	for i, ci := range kept {
		out[i] = candidates[ci]
	}
	return out
}

// Generate runs the full offline stage for hardware h.
func Generate(h hw.Hardware, opt Options) (*Library, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := h.Validate(); err != nil {
		return nil, err
	}

	shapes := SyntheticShapes(opt.NSyn)

	// Tile candidates are independent, so the auto-tuning sweep fans out
	// across cores (the paper's offline stage is likewise embarrassingly
	// parallel across kernels). Results are collected per grid slot and
	// compacted in grid order, keeping generation fully deterministic.
	type slot struct {
		k    kernel.MicroKernel
		cost []float64
		ok   bool
	}
	n := opt.NGen
	slots := make([]slot, n*n*n)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	rows := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rows {
				for j := 1; j <= n; j++ {
					for l := 1; l <= n; l++ {
						k, ok := autoTuneTile(h, 16*i, 16*j, 16*l)
						if !ok {
							continue
						}
						idx := (i-1)*n*n + (j-1)*n + (l - 1)
						slots[idx] = slot{k: k, cost: patternICosts(h, k, shapes), ok: true}
					}
				}
			}
		}()
	}
	for i := 1; i <= n; i++ {
		rows <- i
	}
	close(rows)
	wg.Wait()

	var candidates []kernel.MicroKernel
	var costs [][]float64
	for _, s := range slots {
		if s.ok {
			candidates = append(candidates, s.k)
			costs = append(costs, s.cost)
		}
	}
	if len(candidates) == 0 {
		return nil, fmt.Errorf("tune: no feasible micro-kernels for %s with NGen=%d", h.Name, opt.NGen)
	}

	kept := rankAndPrune(candidates, costs, shapes, opt.NMik)

	lib := &Library{
		HW:      h,
		Opts:    opt,
		Kernels: kept,
		models:  make(map[kernel.MicroKernel]*perfmodel.Model, len(kept)),
	}
	for _, k := range kept {
		k := k
		lib.models[k] = perfmodel.Fit(func(t int) float64 {
			return MeasureTaskCost(h, k, t)
		}, opt.NPred)
	}
	lib.buildIndex()
	return lib, nil
}
