package poly

import (
	"fmt"
	"time"

	"mikpoly/internal/sim"
)

// ChainPlanStats reports what the fused-chain search did.
type ChainPlanStats struct {
	// Candidates is the number of fully costed fused candidates.
	Candidates int
	// PrunedAnchors counts anchor kernels rejected by the hardware bound
	// (M_local cannot hold the chain's intermediate strips) before any
	// costing — the strategy-hierarchization prune that keeps the larger
	// fused search space as cheap as the single-op search.
	PrunedAnchors int
	// Elapsed is the wall-clock planning time.
	Elapsed time.Duration
}

// PlanChain plans a fused multi-stage program for a GEMM chain. It
// enumerates and costs fused candidates: every library kernel that passes the
// hardware scratch bound anchors one full-band candidate (all row strips
// under one kernel), plus — when the
// shared M is ragged under the anchor — two-band candidates that serve the
// remainder strip with a differently sized kernel. Costing follows Eq. 2
// with the strip task priced exactly as the simulator would run it
// (sim.PipelinedTaskCycles at the fair-share bandwidth, the same scale
// g_predict is fitted against), and only the winning candidate is
// materialized, using the same pooled scratch as the single-op search.
//
// The chain never slices the reduction dimension: split-K partials are not
// final values, so a nonlinear inter-stage epilogue cannot be applied to
// them (see engine/epilogue.go).
func (p *Planner) PlanChain(spec ChainSpec) (*Program, ChainPlanStats, error) {
	start := time.Now()
	var stats ChainPlanStats
	if err := spec.Validate(); err != nil {
		return nil, stats, err
	}
	if p.Lib == nil || len(p.Lib.Kernels) == 0 {
		return nil, stats, fmt.Errorf("poly: empty micro-kernel library")
	}

	h := p.Lib.HW
	shape := spec.Shape()
	prefix := spec.prefix()
	maxW := spec.maxWidth()
	pes := h.NumPEs
	bw := h.FairShareBandwidth()

	sc := getScratch()
	defer putScratch(sc)
	strips := sc.chainStrips(len(p.Lib.Kernels))
	// stripCycles lazily prices one row strip of the whole chain under
	// kernel i, memoized per plan; admissible() applies the hardware bound.
	tmpl := Region{N: shape.N, K: shape.K, Chain: prefix}
	admissible := func(i int) bool {
		k := p.Lib.Kernels[i]
		return k.Feasible(h) && ChainScratchBytes(k, maxW, h) <= h.LocalMemBytes
	}
	stripCycles := func(i int) float64 {
		s := &strips[i]
		if !s.done {
			r := tmpl
			r.Kern = p.Lib.Kernels[i]
			s.cycles = sim.PipelinedTaskCycles(r.chainTask(h), bw)
			s.done = true
		}
		return s.cycles
	}
	bandCost := func(t1 int, kernelIdx int) float64 {
		waves := WaveCount(t1, pes)
		switch p.Cost {
		case CostWaveOnly:
			return waves
		case CostPipeOnly:
			return stripCycles(kernelIdx)
		default:
			return waves * stripCycles(kernelIdx)
		}
	}

	// win.anchorIdx is the main-band kernel; candIdx is the tail-band
	// kernel index, or -1 for the single full-band candidate.
	var win winner
	for ai := range p.Lib.Kernels {
		if !admissible(ai) {
			stats.PrunedAnchors++
			continue
		}
		a := p.Lib.Kernels[ai]
		t1 := (shape.M + a.UM - 1) / a.UM
		cost := bandCost(t1, ai)
		stats.Candidates++
		if !win.valid || cost < win.cost {
			win = winner{valid: true, cost: cost, pat: PatternChain, anchorIdx: ai, candIdx: -1}
		}

		// Ragged M: try serving the remainder strip with a smaller kernel
		// (the Pattern II move, applied to the fused band partition).
		mA := shape.M / a.UM * a.UM
		rem := shape.M - mA
		if rem == 0 || mA == 0 {
			continue
		}
		mainCost := bandCost(mA/a.UM, ai)
		for ti := range p.Lib.Kernels {
			if ti == ai || !admissible(ti) {
				continue
			}
			t := p.Lib.Kernels[ti]
			cost := mainCost + bandCost((rem+t.UM-1)/t.UM, ti)
			stats.Candidates++
			if !win.valid || cost < win.cost {
				win = winner{valid: true, cost: cost, pat: PatternChain, anchorIdx: ai, candIdx: ti}
			}
		}
	}
	if !win.valid {
		return nil, stats, fmt.Errorf("poly: no fused candidate fits %s on %s (all %d anchors pruned)",
			spec, h.Name, stats.PrunedAnchors)
	}

	prog := &Program{
		Shape:         shape,
		Pattern:       PatternChain,
		EstimatedCost: win.cost,
		HW:            h,
	}
	anchor := p.Lib.Kernels[win.anchorIdx]
	if win.candIdx < 0 {
		prog.Regions = []Region{{
			M: shape.M, N: shape.N, K: shape.K, Kern: anchor, Chain: prefix,
		}}
	} else {
		mA := shape.M / anchor.UM * anchor.UM
		prog.Regions = []Region{
			{M: mA, N: shape.N, K: shape.K, Kern: anchor, Chain: prefix},
			{M0: mA, M: shape.M - mA, N: shape.N, K: shape.K, Kern: p.Lib.Kernels[win.candIdx], Chain: prefix},
		}
	}
	if err := prog.Validate(); err != nil {
		return nil, stats, fmt.Errorf("poly: planned chain program invalid: %w", err)
	}
	stats.Elapsed = time.Since(start)
	return prog, stats, nil
}
