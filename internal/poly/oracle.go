package poly

import (
	"context"
	"fmt"

	"mikpoly/internal/tensor"
)

// planOracle is the CostOracle search: every candidate program is
// materialized and simulated on the substrate — the reference point for
// cost-model quality, far too slow for runtime use (§5.3.2). It never prunes
// (its score scale is simulated cycles, not comparable to the cost-model
// bound) and is exempt from the allocation-free fast path by design.
func (p *Planner) planOracle(ctx context.Context, sc *scratch, shape tensor.GemmShape, stats *PlanStats) (*Program, error) {
	var best *Program
	bestCost := 0.0
	consider := func(prog *Program, cost float64) {
		stats.Candidates++
		if best == nil || cost < bestCost {
			bestCost = cost
			best = prog
		}
	}

	var bs boundarySet
	for _, pat := range p.patterns() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("poly: planning aborted: %w", err)
		}
		_, psp := p.Trace.Start(ctx, patternSpanName(pat))
		before := stats.Candidates
		for ai, anchor := range p.Lib.Kernels {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("poly: planning aborted: %w", err)
			}
			bs.enumerate(pat, shape.M, shape.N, anchor.UM, anchor.UN, p.Lib.HW.NumPEs)
			for ci := 0; ci < bs.n; ci++ {
				// The oracle enumerates the primary kernel explicitly even
				// for Pattern I, so every single-kernel program is
				// simulated.
				prog := p.assemble(sc, shape, pat, bs.cand(ci), ai)
				total := prog.Simulate(p.Lib.HW).Cycles
				prog.EstimatedCost = total
				consider(prog, total)
			}
		}
		psp.Attr("candidates", float64(stats.Candidates-before)).End()
	}

	if p.EnableSplitK {
		_, ksp := p.Trace.Start(ctx, "poly.pattern.split-K")
		before := stats.Candidates
		for _, prog := range p.splitKCandidates(shape) {
			cost := prog.Simulate(p.Lib.HW).Cycles
			prog.EstimatedCost = cost
			consider(prog, cost)
		}
		ksp.Attr("candidates", float64(stats.Candidates-before)).End()
	}
	return best, nil
}
