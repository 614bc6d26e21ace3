package poly

import (
	"context"
	"fmt"
	"time"

	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// CostModel selects how candidate programs are scored. The variants other
// than CostFull exist for the ablation of Fig. 12(b).
type CostModel int

const (
	// CostFull is the paper's model, Eq. 2: Σ_i f_wave × f_pipe.
	CostFull CostModel = iota
	// CostWaveOnly scores by Σ_i f_wave alone (MikPoly-Wave): it chases
	// minimal wave counts and therefore over-selects large micro-kernels.
	CostWaveOnly
	// CostPipeOnly scores by Σ_i f_pipe alone (MikPoly-Pipe): it chases
	// the cheapest single pipelined task and over-selects small kernels.
	CostPipeOnly
	// CostOracle simulates every candidate program on the substrate and
	// picks the true optimum (MikPoly-Oracle) — far too slow for runtime
	// use (§5.3.2) but the reference point for cost-model quality.
	CostOracle
)

func (c CostModel) String() string {
	switch c {
	case CostFull:
		return "full"
	case CostWaveOnly:
		return "wave-only"
	case CostPipeOnly:
		return "pipe-only"
	case CostOracle:
		return "oracle"
	default:
		return fmt.Sprintf("CostModel(%d)", int(c))
	}
}

// PlanStats reports what the online search did — the polymerization overhead
// of Fig. 12(a).
type PlanStats struct {
	// Candidates is the number of fully costed candidate programs.
	Candidates int
	// PrunedAnchors counts anchor kernels skipped by branch-and-bound.
	PrunedAnchors int
	// PrunedCandidates counts (anchor, boundary) candidates rejected by their
	// lower bound before any remainder argmin was paid for.
	PrunedCandidates int
	// Elapsed is the wall-clock planning time of this Go implementation.
	Elapsed time.Duration
}

// OnlineCostPerCandidate is the modeled per-candidate cost, in device-clock
// cycles, of the paper's optimized C++ runtime evaluating one polymerization
// strategy (a handful of integer divisions plus a piecewise-linear lookup —
// ~7 ns). End-to-end latencies charge MikPoly this modeled overhead rather
// than this Go process's wall-clock, which measures the wrong
// implementation; Fig. 12(a) reports both.
const OnlineCostPerCandidate = 10.0

// ModeledOverheadCycles is the deployed-runtime estimate of the online
// stage's cost for this plan. It charges every examined candidate, costed or
// bound-rejected: the modeled runtime is the paper's, which has no remainder
// bound, so the Go search's pruning must not shrink it.
func (st PlanStats) ModeledOverheadCycles() float64 {
	return float64(st.Candidates+st.PrunedCandidates) * OnlineCostPerCandidate
}

// Planner performs on-the-fly micro-kernel polymerization against an offline
// library.
type Planner struct {
	// Lib is the offline-stage output (kernels + g_predict models).
	Lib *tune.Library

	// Patterns is the pattern subset to explore; nil selects the platform
	// default (GPU: I–II, NPU: I–IX) from the library's hardware.
	Patterns []PatternID

	// Cost selects the scoring model (default CostFull).
	Cost CostModel

	// DisablePruning turns off the branch-and-bound anchor skip, for the
	// online-overhead ablation.
	DisablePruning bool

	// EnableSplitK adds reduction-dimension splitting (PatternSplitK) to
	// the search — an extension beyond the paper's output-plane patterns
	// for skinny outputs with deep reductions.
	EnableSplitK bool

	// Trace, when non-nil and enabled, records hierarchical spans for the
	// search (poly.plan → per-pattern enumeration → validate). It never
	// affects which program is chosen.
	Trace *obs.Tracer
}

// NewPlanner returns a planner with the platform-default pattern set.
func NewPlanner(lib *tune.Library) *Planner { return &Planner{Lib: lib} }

func (p *Planner) patterns() []PatternID {
	if p.Patterns != nil {
		return p.Patterns
	}
	if p.Lib.HW.Scheduler == hw.ScheduleStaticMaxMin {
		return npuPatternSet
	}
	return gpuPatternSet
}

// Plan produces the optimized tensor program S* for the runtime shape
// (Algorithm 1, On-the-Fly Polymerization).
func (p *Planner) Plan(shape tensor.GemmShape) (*Program, PlanStats, error) {
	return p.PlanContext(context.Background(), shape)
}

// PlanContext is Plan with cooperative cancellation: the search checks ctx
// between anchor kernels and aborts with ctx's error once it is done, so a
// serving layer can impose a planning deadline and fall back to the
// always-legal single-kernel program (FallbackProgram) instead of blocking.
//
// The search itself is allocation-free on the hot path: candidates are costed
// from pooled scratch tables, boundaries are enumerated into stack storage,
// and only the winning program is materialized (the losing candidates —
// including the single-kernel fallback-shaped Pattern-I ones — are never
// built).
func (p *Planner) PlanContext(ctx context.Context, shape tensor.GemmShape) (*Program, PlanStats, error) {
	start := time.Now()
	var stats PlanStats
	if !shape.Valid() {
		return nil, stats, fmt.Errorf("poly: invalid shape %v", shape)
	}
	if p.Lib == nil || len(p.Lib.Kernels) == 0 {
		return nil, stats, fmt.Errorf("poly: empty micro-kernel library")
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, fmt.Errorf("poly: planning aborted: %w", err)
	}
	ctx, sp := p.Trace.Start(ctx, "poly.plan")
	defer func() {
		sp.Attr("m", float64(shape.M)).Attr("n", float64(shape.N)).Attr("k", float64(shape.K))
		sp.Attr("candidates", float64(stats.Candidates)).Attr("pruned", float64(stats.PrunedAnchors))
		sp.Attr("pruned_candidates", float64(stats.PrunedCandidates))
		sp.End()
	}()

	sc := getScratch()
	defer putScratch(sc)
	p.prepare(sc, shape.K)
	var best *Program
	var err error
	if p.Cost == CostOracle {
		best, err = p.planOracle(ctx, sc, shape, &stats)
	} else {
		best, err = p.planSequential(ctx, sc, shape, &stats)
	}
	if err != nil {
		return nil, stats, err
	}
	if best == nil {
		return nil, stats, fmt.Errorf("poly: no candidate programs for %v", shape)
	}
	_, vsp := p.Trace.Start(ctx, "poly.validate")
	err = best.Validate()
	vsp.End()
	if err != nil {
		return nil, stats, fmt.Errorf("poly: planned program invalid: %w", err)
	}
	best.HW = p.Lib.HW
	stats.Elapsed = time.Since(start)
	return best, stats, nil
}

// planSequential is the default online search: one pass over the pattern ×
// anchor × boundary space in a fixed order, scoring candidates from the
// per-class price tables (see eval.go) and materializing only the winner. sc
// must be prepared for shape.K.
func (p *Planner) planSequential(ctx context.Context, sc *scratch, shape tensor.GemmShape, stats *PlanStats) (*Program, error) {
	var bs boundarySet

	var win winner
	for _, pat := range p.patterns() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("poly: planning aborted: %w", err)
		}
		// One strategy-search span per pattern enumeration; a span cut
		// short by cancellation is simply never recorded.
		_, psp := p.Trace.Start(ctx, patternSpanName(pat))
		before := stats.Candidates
		if pat == PatternI {
			// Pattern I has no anchor: one argmin over the whole output
			// covers every kernel.
			c := p.regionArgmin(sc, shape.M, shape.N)
			stats.Candidates++
			if total := 0.0 + c; !win.valid || total < win.cost {
				win = winner{valid: true, cost: total, pat: pat}
			}
		} else if err := p.sweepAnchors(ctx, sc, &bs, pat, shape, stats, &win); err != nil {
			return nil, err
		}
		psp.Attr("candidates", float64(stats.Candidates-before)).End()
	}

	if p.EnableSplitK {
		_, ksp := p.Trace.Start(ctx, "poly.pattern.split-K")
		before := stats.Candidates
		p.evalSplitK(shape, stats, &win)
		ksp.Attr("candidates", float64(stats.Candidates-before)).End()
	}
	if !win.valid {
		return nil, nil
	}
	return p.buildWinner(sc, shape, win), nil
}

// sweepAnchors scores every candidate of an anchored pattern, anchors in
// library order. A candidate's cost is the anchored primary region's
// waves × the anchor's f_pipe plus the remainder regions' argmin costs, added
// in region order starting from 0 — the same floats in the same order as
// summing the materialized program's regions, so the total is bitwise
// ProgramCost of the program buildWinner would build.
//
// Until a boundary's remainder argmins are paid for, vals holds a lower bound
// on each of them (see remainderBound), and the candidate's bound is summed
// exactly as its total would be. Float addition is monotone in each operand,
// so bound ≤ total; a candidate whose bound already reaches the incumbent
// could never replace it under the strict < rule and is skipped. The
// incumbent therefore evolves exactly as in the unbounded sweep.
func (p *Planner) sweepAnchors(ctx context.Context, sc *scratch, bs *boundarySet, pat PatternID, shape tensor.GemmShape, stats *PlanStats, win *winner) error {
	for ai := range p.Lib.Kernels {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("poly: planning aborted: %w", err)
		}
		// Branch-and-bound: if the anchor's best possible main region
		// alone already exceeds the current best program, every strategy
		// built on this anchor loses too (§3.5).
		if !p.DisablePruning && win.valid && p.anchorLowerBound(sc.pipe, ai) >= win.cost {
			stats.PrunedAnchors++
			continue
		}
		cl := &sc.classes[sc.class[ai]]
		if cl.pat != pat {
			p.price(sc, bs, cl, pat, shape)
		}
		pipe := sc.pipe[ai]
		if p.Cost == CostWaveOnly {
			pipe = 1 // the primary term is the wave count alone; x·1 is exact
		}
		lo := 0
		for ci, end := range cl.end[:cl.n] {
			if cl.priced&(1<<ci) == 0 {
				if win.valid && sumFrom(cl.vals[lo]*pipe, cl.vals[lo+1:end]) >= win.cost {
					lo = int(end)
					stats.PrunedCandidates++
					continue
				}
				p.priceRemainders(sc, cl, ci, lo, int(end))
			}
			total := sumFrom(cl.vals[lo]*pipe, cl.vals[lo+1:end])
			lo = int(end)
			stats.Candidates++
			if !win.valid || total < win.cost {
				*win = winner{valid: true, cost: total, pat: pat, anchorIdx: ai, candIdx: ci}
			}
		}
	}
	return nil
}

// anchorLowerBound is an optimistic cost for any program whose primary region
// uses anchor i: at least one wave of one pipelined task with a single
// reduction instance.
func (p *Planner) anchorLowerBound(pipe []float64, i int) float64 {
	if p.Cost == CostWaveOnly {
		return 1
	}
	return pipe[i]
}

// splitKFactors is the reduction-split fan the split-K extension explores.
var splitKFactors = [...]int{2, 4, 8, 16, 32}

// evalSplitK scores PatternSplitK candidates against the current winner
// without materializing programs: the full output computed ks times over
// contiguous reduction slices. Splitting only helps when the output-plane
// grid underfills the device, so candidates are generated only while the
// split grid still gains occupancy.
func (p *Planner) evalSplitK(shape tensor.GemmShape, stats *PlanStats, win *winner) {
	pes := p.Lib.HW.NumPEs
	for ki := range p.Lib.Kernels {
		k := &p.Lib.Kernels[ki]
		baseTasks := ((shape.M + k.UM - 1) / k.UM) * ((shape.N + k.UN - 1) / k.UN)
		if baseTasks >= pes {
			continue // already a full wave; splitting only adds traffic
		}
		for _, ks := range splitKFactors {
			if (ks-1)*baseTasks >= pes || ks > shape.K {
				break
			}
			cost := p.splitKEval(ki, ks, baseTasks, shape)
			stats.Candidates++
			if !win.valid || cost < win.cost {
				*win = winner{valid: true, cost: cost, pat: PatternSplitK, anchorIdx: ki, candIdx: ks}
			}
		}
	}
}

// splitKEval scores one (kernel, split-count) split-K candidate. Unlike
// output-plane regions, split-K slices co-run over the same output, so the
// wave term covers the combined grid rather than summing per-region waves.
func (p *Planner) splitKEval(ki, ks, baseTasks int, shape tensor.GemmShape) float64 {
	k := &p.Lib.Kernels[ki]
	total := 0
	maxPipe := 0.0
	for i := 0; i < ks; i++ {
		k0 := i * shape.K / ks
		k1 := (i + 1) * shape.K / ks
		total += baseTasks
		t3 := (k1 - k0 + k.UK - 1) / k.UK
		if c := p.Lib.PredictAt(ki, t3); c > maxPipe {
			maxPipe = c
		}
	}
	waves := WaveCount(total, p.Lib.HW.NumPEs)
	switch p.Cost {
	case CostWaveOnly:
		return waves
	case CostPipeOnly:
		return maxPipe
	default:
		return waves * maxPipe
	}
}

// splitKCandidates builds PatternSplitK programs for the oracle path, which
// must simulate every candidate and therefore needs them materialized.
func (p *Planner) splitKCandidates(shape tensor.GemmShape) []*Program {
	var out []*Program
	pes := p.Lib.HW.NumPEs
	for ki := range p.Lib.Kernels {
		k := p.Lib.Kernels[ki]
		baseTasks := ((shape.M + k.UM - 1) / k.UM) * ((shape.N + k.UN - 1) / k.UN)
		if baseTasks >= pes {
			continue
		}
		for _, ks := range splitKFactors {
			if (ks-1)*baseTasks >= pes || ks > shape.K {
				break
			}
			out = append(out, p.buildSplitK(shape, ki, ks))
		}
	}
	return out
}

// buildSplitK materializes the (kernel, split-count) split-K program.
func (p *Planner) buildSplitK(shape tensor.GemmShape, ki, ks int) *Program {
	k := p.Lib.Kernels[ki]
	prog := &Program{Shape: shape, Pattern: PatternSplitK, Regions: make([]Region, 0, ks)}
	for i := 0; i < ks; i++ {
		k0 := i * shape.K / ks
		k1 := (i + 1) * shape.K / ks
		prog.Regions = append(prog.Regions, Region{
			M0: 0, N0: 0, M: shape.M, N: shape.N,
			KOff: k0, K: k1 - k0, Kern: k,
		})
	}
	return prog
}

// PlanPatternI builds the best single-kernel program — the structure every
// baseline library routine uses, and the comparison point of the case study.
func (p *Planner) PlanPatternI(shape tensor.GemmShape) (*Program, error) {
	q := *p // the planner may be shared with concurrent plans: never mutate it
	q.Patterns = []PatternID{PatternI}
	prog, _, err := q.Plan(shape)
	return prog, err
}
