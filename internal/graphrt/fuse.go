package graphrt

import (
	"context"
	"time"

	"mikpoly/internal/graphopt"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
)

// chainKey identifies a fusion decision: the chain spec's content fingerprint
// and the content hash of the kernel library the chain and its per-op
// alternative were priced from, so a library swap re-prices every chain.
type chainKey struct {
	spec, lib string
}

// chainEntry caches one fusion chain's planning decision. prog is nil when the cost model rejected fusion
// (or the fused plan failed): the member ops then stay on the per-op path,
// and the rejection itself is remembered so repeated graphs do not re-pay the
// comparison.
type chainEntry struct {
	prog *poly.Program
}

// chainCacheCap bounds the chain-plan memo (entries are small; the cap only
// guards against unbounded dynamic-shape churn).
const chainCacheCap = 1024

// fusionPlan is one execution's fusion decision: which ops execute as fused
// chain programs and which ops those programs absorb.
type fusionPlan struct {
	// head maps a chain head op index to its fused program.
	head map[int]*poly.Program
	// shapes maps a head to its member GEMM shapes, retained so the
	// recovery ladder's replan rung can dissolve the chain back into
	// per-op programs against a degraded view.
	shapes map[int][]tensor.GemmShape
	// skip marks member ops (later GEMMs and folded elementwise middles)
	// that execute inside their head's program and must not be scheduled,
	// ticketed, or charged separately.
	skip map[int]bool
}

// covered reports whether op i is part of a fused chain (head or member) and
// therefore must not be planned through the per-op pipeline.
func (f *fusionPlan) covered(i int) bool {
	return f != nil && (f.skip[i] || f.head[i] != nil)
}

// planFusion decides, before the plan-ahead pipeline starts, which detected
// chains execute fused. Fusion is attempted only on the pristine device view:
// fused candidates are priced against H, and under a degraded fingerprint the
// per-op path (which replans against H') is the conservative choice. Each
// chain's decision — fused program planned, per-op alternative priced, cost
// comparison — is memoized across executions by the chain spec fingerprint.
// Inline decision wall time is charged as planning stall: it sits on the
// critical path exactly like sequential-mode planning.
func (r *Runtime) planFusion(ctx context.Context, g nn.Graph, rep *Report) *fusionPlan {
	if _, fp, _ := r.healthView(); fp != "" {
		return nil
	}
	chains := graphopt.DetectChains(g, r.h)
	if len(chains) == 0 {
		return nil
	}
	f := &fusionPlan{
		head:   make(map[int]*poly.Program),
		shapes: make(map[int][]tensor.GemmShape),
		skip:   make(map[int]bool),
	}
	for _, ch := range chains {
		start := time.Now()
		entry := r.chainPlan(ctx, g, ch)
		wall := time.Since(start)
		rep.Plans++
		rep.Stalls++
		rep.PlanWall += wall
		rep.StallWall += wall
		if entry.prog == nil {
			rep.FusionRejected++
			continue
		}
		head := ch.Ops[0]
		f.head[head] = entry.prog
		for _, m := range ch.Ops {
			if g.Ops[m].Kind == nn.OpGemm {
				f.shapes[head] = append(f.shapes[head], g.Ops[m].Gemm)
			}
		}
		for _, m := range ch.Ops[1:] {
			f.skip[m] = true
		}
		rep.FusedChains++
		rep.FusedSavedBytes += ch.SavedBytes
	}
	if len(f.head) == 0 {
		return nil
	}
	return f
}

// chainPlan resolves one chain's fusion decision, memoized by spec
// fingerprint and library hash. A chain fuses only when the fused program's modeled cost beats
// the summed per-op alternative — the member GEMMs' planned programs plus the
// folded elementwise middles' bandwidth-bound cycles. Fused strip tasks trade
// output-tile parallelism for inter-stage traffic, so the comparison is
// genuinely two-sided: wide, compute-bound chains on a big device often lose.
// A degraded or failed member plan rejects fusion outright (never fuse on top
// of a fallback-quality estimate).
func (r *Runtime) chainPlan(ctx context.Context, g nn.Graph, ch graphopt.Chain) chainEntry {
	key := chainKey{spec: ch.Spec.String(), lib: r.comp.LibraryHash()}
	r.mu.Lock()
	if e, ok := r.chainCache[key]; ok {
		r.mu.Unlock()
		return e
	}
	r.mu.Unlock()

	var entry chainEntry
	fused, _, err := r.comp.Planner().PlanChainContext(ctx, ch.Spec)
	if err == nil {
		unfused, ok := 0.0, true
		for _, m := range ch.Ops {
			op := g.Ops[m]
			if op.Kind == nn.OpOther {
				unfused += op.OtherCycles(r.h)
				continue
			}
			prog, degraded, perr := r.planFn(ctx, op.Gemm)
			if perr != nil || degraded || prog.EstimatedCost <= 0 {
				ok = false
				break
			}
			unfused += prog.EstimatedCost
		}
		if ok && fused.EstimatedCost < unfused {
			entry.prog = fused
		}
	}
	if ctx.Err() != nil {
		// Never memoize a decision aborted by cancellation or deadline.
		return entry
	}
	r.mu.Lock()
	if len(r.chainCache) >= chainCacheCap {
		r.chainCache = make(map[chainKey]chainEntry)
	}
	r.chainCache[key] = entry
	r.mu.Unlock()
	return entry
}
