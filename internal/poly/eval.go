package poly

import (
	"math"
	"sync"

	"mikpoly/internal/tensor"
)

// scratch holds the per-plan reusable tables. Plans may run concurrently on
// one Planner (the compiler's singleflight dedupes per shape, not globally),
// so scratch lives in a pool rather than on the Planner.
type scratch struct {
	pipe   []float64
	strips []chainStrip
}

// chainStrip memoizes one kernel's fused strip-task cycles within a chain
// plan (the fused analog of the pipe table, lazily filled because the
// hardware bound prunes most kernels before they are ever priced).
type chainStrip struct {
	cycles float64
	done   bool
}

// chainStrips returns a reset n-entry strip memo from pooled storage.
func (sc *scratch) chainStrips(n int) []chainStrip {
	if cap(sc.strips) < n {
		sc.strips = make([]chainStrip, n)
	}
	sc.strips = sc.strips[:n]
	for i := range sc.strips {
		sc.strips[i] = chainStrip{}
	}
	return sc.strips
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// pipeTable fills the per-kernel f_pipe table for this plan's reduction
// extent: pipe[i] = g_predict(K̃_i, ceil(K / uK_i)). Output-plane patterns
// never slice K, so the pipelined-task cost of every kernel is a per-plan
// constant — computing it once turns the inner scoring loop into pure integer
// wave arithmetic plus one indexed multiply.
func (p *Planner) pipeTable(sc *scratch, K int) []float64 {
	n := len(p.Lib.Kernels)
	if cap(sc.pipe) < n {
		sc.pipe = make([]float64, n)
	}
	sc.pipe = sc.pipe[:n]
	for i := range p.Lib.Kernels {
		k := &p.Lib.Kernels[i]
		t3 := (K + k.UK - 1) / k.UK
		sc.pipe[i] = p.Lib.PredictAt(i, t3)
	}
	return sc.pipe
}

// kernelRegionCost is regionCost with the g_predict lookup replaced by the
// precomputed pipe table: the cost of serving geometry g with kernel i.
func (p *Planner) kernelRegionCost(pipe []float64, i int, g rect, pes int) float64 {
	k := &p.Lib.Kernels[i]
	t1 := (g.m + k.UM - 1) / k.UM
	t2 := (g.n + k.UN - 1) / k.UN
	waves := WaveCount(t1*t2, pes)
	switch p.Cost {
	case CostWaveOnly:
		return waves
	case CostPipeOnly:
		return pipe[i]
	default:
		return waves * pipe[i]
	}
}

// evalCandidate scores one boundary candidate without materializing a
// program: the anchored primary region (when the pattern has one) uses the
// anchor kernel, every other region takes the argmin kernel. Region terms are
// accumulated in enumeration order, so the result is bitwise identical to
// scoring the materialized program.
func (p *Planner) evalCandidate(pipe []float64, geoms []rect, anchorIdx int, anchored bool, pes int) float64 {
	total := 0.0
	for gi := range geoms {
		var c float64
		if gi == 0 && anchored {
			c = p.kernelRegionCost(pipe, anchorIdx, geoms[gi], pes)
		} else {
			c = math.Inf(1)
			for i := range p.Lib.Kernels {
				if rc := p.kernelRegionCost(pipe, i, geoms[gi], pes); rc < c {
					c = rc
				}
			}
		}
		total += c
	}
	return total
}

// winner identifies the cheapest candidate seen so far by its enumeration
// coordinates, so the search can defer program construction until the argmin
// is final. For PatternSplitK, anchorIdx is the kernel index and candIdx the
// split count.
type winner struct {
	valid     bool
	cost      float64
	pat       PatternID
	anchorIdx int
	candIdx   int
}

// skeletons returns the memoized boundary-candidate list for (pattern, shape,
// anchor). The returned value is shared and must be treated as read-only.
func (p *Planner) skeletons(pat PatternID, shape tensor.GemmShape, anchorIdx int) [][]rect {
	return cachedBoundaryCandidates(pat, shape.M, shape.N, p.Lib.Kernels[anchorIdx], p.Lib.HW.NumPEs)
}

// buildWinner materializes the winning candidate — the only program
// construction the non-oracle search performs. Kernel choices are re-derived
// with the same argmin the scoring pass used, so the built program is exactly
// the one that was scored.
func (p *Planner) buildWinner(pipe []float64, shape tensor.GemmShape, win winner) *Program {
	if win.pat == PatternSplitK {
		prog := p.buildSplitK(shape, win.anchorIdx, win.candIdx)
		prog.EstimatedCost = win.cost
		return prog
	}
	geoms := p.skeletons(win.pat, shape, win.anchorIdx)[win.candIdx]
	pes := p.Lib.HW.NumPEs
	anchored := win.pat != PatternI
	prog := &Program{
		Shape:         shape,
		Pattern:       win.pat,
		Regions:       make([]Region, 0, len(geoms)),
		EstimatedCost: win.cost,
	}
	for gi, g := range geoms {
		ki := win.anchorIdx
		if !(gi == 0 && anchored) {
			bestCost := math.Inf(1)
			for i := range p.Lib.Kernels {
				if rc := p.kernelRegionCost(pipe, i, g, pes); rc < bestCost {
					bestCost = rc
					ki = i
				}
			}
		}
		prog.Regions = append(prog.Regions, Region{
			M0: g.m0, N0: g.n0, M: g.m, N: g.n, K: shape.K, Kern: p.Lib.Kernels[ki],
		})
	}
	return prog
}
