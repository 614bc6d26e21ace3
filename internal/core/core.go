// Package core assembles MikPoly's two stages into the compiler described in
// §3.5 / Fig. 4: an offline micro-kernel library (S1) plus the on-the-fly
// polymerization planner (S2), fronted by a bounded program cache so that a
// shape seen twice pays the (already microsecond-scale) online cost once —
// the deployment shape of the paper's end-to-end experiments, where the same
// operator shapes recur across model layers.
//
// The compiler is hardened for serving: the per-shape cache is a bounded LRU
// (memory stays flat under unbounded shape streams), concurrent requests for
// the same uncached shape are deduplicated into one planner invocation
// (singleflight), planning accepts a context for deadlines/cancellation,
// planner panics are isolated into errors, and PlanOrFallback degrades to
// the always-legal single-kernel program instead of failing a request.
//
// LRU, the generic bounded table the plan cache is built on, is exported:
// the graph runtime keeps its compiled executions, stage memo and program
// digests in it too, so every memo table on the serving path evicts in
// recency order and none is dropped wholesale.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mikpoly/internal/engine"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// Compiler is the MikPoly dynamic-shape tensor compiler.
type Compiler struct {
	lib     *tune.Library
	planner *poly.Planner

	// libHash is the content digest of lib, which is fixed for the
	// compiler's life; every cache key carries it.
	libHash string

	// tracker maintains decayed per-shape request counts (HotShapes).
	tracker *shapeTracker

	// planFn is the planner invocation; a seam tests use to inject slow or
	// panicking planners. fp is the health fingerprint of the hardware
	// view the plan targets ("" = pristine H).
	planFn func(ctx context.Context, shape tensor.GemmShape, fp string) (*poly.Program, poly.PlanStats, error)

	// hreg, when non-nil, supplies the degraded hardware view H' the
	// online stage plans against. Nil means the pristine H always.
	hreg *health.Registry

	mu       sync.Mutex
	cache    *lruCache
	inflight map[cacheKey]*planCall

	// parked counts callers waiting on another caller's in-flight plan, and
	// replanning tracks background replans — what tests wait on instead of
	// sleeping.
	parked     atomic.Int32
	replanning sync.WaitGroup

	// planners maps health fingerprints to planners targeting the
	// corresponding H' (sharing the offline library's kernels and fitted
	// models); "" is the base planner. Bounded: distinct degraded views
	// are few in practice, but a pathological fault stream must not grow
	// this without bound.
	planners map[string]*poly.Planner

	// lastGen is the health-view generation the compiler last saw;
	// a change triggers background replanning of the hot working set.
	lastGen uint64

	// aggregate online-stage statistics (Fig. 12a accounting)
	planCount int
	planStats poly.PlanStats

	// robustness counters
	fallbacks     int64
	plannerPanics int64
	replans       int64
	degradedPlans int64

	// observability (nil-safe no-ops when WithObs was not given)
	o            *obs.Obs
	planLatency  *obs.Histogram
	planTotal    *obs.Counter
	planCandObs  *obs.Counter
	planPruneObs *obs.Counter
	planBoundObs *obs.Counter
	fallbackObs  *obs.Counter
	panicObs     *obs.Counter
}

// planCall is one in-flight singleflight planning operation: the first
// caller for an uncached shape plans; later callers wait on done.
type planCall struct {
	done chan struct{}
	prog *poly.Program
	err  error
}

// Option configures a Compiler at construction.
type Option func(*Compiler)

// WithCacheCapacity bounds the program cache to n entries (default
// DefaultCacheCapacity). Values < 1 select the default.
func WithCacheCapacity(n int) Option {
	return func(c *Compiler) { c.cache = newLRU(n) }
}

// WithObs attaches an observability bundle: the planner records search spans
// through o's tracer, and the compiler feeds the planner-latency histogram
// and online-stage counters into o's registry. A nil o is a no-op, and all
// instruments degrade to no-ops when o's parts are nil, so instrumented code
// never branches on "is observability on".
func WithObs(o *obs.Obs) Option {
	return func(c *Compiler) {
		c.o = o
		c.planner.Trace = o.T()
		m := o.M()
		c.planLatency = m.Histogram("mik_plan_latency_seconds",
			"Online polymerization latency per leader (non-cached, non-coalesced) plan.", nil)
		c.planTotal = m.Counter("mik_plan_total", "Completed leader plans.")
		c.planCandObs = m.Counter("mik_plan_candidates_total", "Candidate programs fully costed by the online search.")
		c.planPruneObs = m.Counter("mik_plan_pruned_anchors_total", "Anchor kernels skipped by branch-and-bound.")
		c.planBoundObs = m.Counter("mik_plan_pruned_candidates_total", "Candidate programs rejected by their lower bound before being costed.")
		c.fallbackObs = m.Counter("mik_plan_fallbacks_total", "Requests answered with the single-kernel graceful-degradation program.")
		c.panicObs = m.Counter("mik_plan_panics_total", "Planner panics converted into errors.")
	}
}

// NewCompiler runs the offline stage for hardware h and returns a ready
// compiler. Offline generation is the expensive step ("approximately 6 hours
// for GEMM on GPUs" in the paper; ~100 ms on the simulator substrate) and is
// reused for every shape thereafter.
func NewCompiler(h hw.Hardware, opt tune.Options, opts ...Option) (*Compiler, error) {
	lib, err := tune.Generate(h, opt)
	if err != nil {
		return nil, err
	}
	return NewCompilerFromLibrary(lib, opts...), nil
}

// NewCompilerFromLibrary wraps an existing offline library (for sharing one
// library across compiler variants).
func NewCompilerFromLibrary(lib *tune.Library, opts ...Option) *Compiler {
	c := &Compiler{
		lib:      lib,
		libHash:  lib.Hash(),
		tracker:  newShapeTracker(),
		planner:  poly.NewPlanner(lib),
		cache:    newLRU(DefaultCacheCapacity),
		inflight: make(map[cacheKey]*planCall),
		planners: make(map[string]*poly.Planner),
	}
	c.planners[""] = c.planner
	c.planFn = func(ctx context.Context, shape tensor.GemmShape, fp string) (*poly.Program, poly.PlanStats, error) {
		return c.plannerByFP(fp).PlanContext(ctx, shape)
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// SetHealth attaches (or replaces) the health registry: every plan targets
// the registry's current degraded view H' instead of the pristine H, the
// program cache is keyed by (shape, view fingerprint), and a view change
// triggers background replanning of the hot shapes. The serving layer wires
// one registry across compiler, runtime and handlers. Passing nil restores
// pristine-only planning.
func (c *Compiler) SetHealth(reg *health.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hreg = reg
	c.lastGen = 0
}

// currentView snapshots the health view and its fingerprint ("" and the
// zero view when no registry is attached).
func (c *Compiler) currentView() (health.View, string) {
	if c.hreg == nil {
		return health.View{}, ""
	}
	v := c.hreg.View()
	return v, v.Fingerprint()
}

// plannersCap bounds the per-fingerprint planner map.
const plannersCap = 16

// plannerForView returns (building if needed) the planner targeting the
// view's degraded hardware. It shares the offline library's kernels and
// models, and copies the base planner's search settings field by field: a
// field added to poly.Planner and missed here reverts on degraded views
// (ROADMAP item 16). Only the hardware abstraction differs.
func (c *Compiler) plannerForView(v health.View, fp string) *poly.Planner {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.planners[fp]; ok {
		return p
	}
	if len(c.planners) >= plannersCap {
		// Degenerate fault churn: keep only the base planner. Dropping
		// degraded planners is safe — they are derived state.
		for k := range c.planners {
			if k != "" {
				delete(c.planners, k)
			}
		}
	}
	base := c.planners[""]
	p := poly.NewPlanner(c.lib.WithHardware(v.Apply(c.lib.HW)))
	p.Patterns = base.Patterns
	p.Cost = base.Cost
	p.DisablePruning = base.DisablePruning
	p.EnableSplitK = base.EnableSplitK
	p.Trace = base.Trace
	c.planners[fp] = p
	return p
}

// plannerByFP resolves a fingerprint to an already-built planner, falling
// back to the base planner — the plan path materializes the planner via
// plannerForView before invoking planFn, so the fallback only triggers for
// injected planFn seams.
func (c *Compiler) plannerByFP(fp string) *poly.Planner {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.planners[fp]; ok {
		return p
	}
	return c.planners[""]
}

// Name implements the baseline.Planner interface for head-to-head reports.
func (c *Compiler) Name() string { return "MikPoly" }

// Hardware returns the target device abstraction.
func (c *Compiler) Hardware() hw.Hardware { return c.lib.HW }

// Library exposes the offline-stage output.
func (c *Compiler) Library() *tune.Library { return c.lib }

// HotShapes returns up to n shapes ordered by decayed request count, hottest
// first — the traffic-shaped working set.
func (c *Compiler) HotShapes(n int) []tensor.GemmShape {
	return c.tracker.Hot(n)
}

// Planner exposes the online planner for configuration (cost-model variant,
// pattern subset, pruning) before first use. The plan cache is not keyed by
// these settings: mutating the planner after programs are cached serves the
// stale programs (ROADMAP item 16).
func (c *Compiler) Planner() *poly.Planner { return c.planner }

// Invalidate drops the cached program for one shape — e.g. after an
// execution fault report — so the next request re-plans it. The shape is
// dropped under every health fingerprint.
func (c *Compiler) Invalidate(shape tensor.GemmShape) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache.removeShape(shape)
}

// CacheStats reports the program cache bound and cumulative hit/miss/eviction
// counts.
func (c *Compiler) CacheStats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cache.stats()
}

// HealthStats reports the robustness counters.
type HealthStats struct {
	// Fallbacks counts requests answered with the single-kernel
	// graceful-degradation program.
	Fallbacks int64
	// PlannerPanics counts planner panics converted into errors.
	PlannerPanics int64
	// Replans counts background replanning invocations triggered by
	// health-view changes.
	Replans int64
	// DegradedPlans counts leader plans performed against a non-pristine
	// hardware view.
	DegradedPlans int64
}

// Health returns the cumulative robustness counters.
func (c *Compiler) Health() HealthStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return HealthStats{
		Fallbacks:     c.fallbacks,
		PlannerPanics: c.plannerPanics,
		Replans:       c.replans,
		DegradedPlans: c.degradedPlans,
	}
}

// Plan returns the optimized program S* for a runtime shape, caching per
// shape. It never fails on a valid shape — MikPoly's arbitrary-shape
// guarantee.
func (c *Compiler) Plan(shape tensor.GemmShape) (*poly.Program, error) {
	return c.PlanContext(context.Background(), shape)
}

// PlanContext is Plan under a caller-supplied context: the online search is
// cancelled when ctx expires. Concurrent calls for the same uncached shape
// coalesce into a single planner invocation (singleflight); waiters whose
// own context outlives a leader that died of its context retry as the new
// leader. The plan targets the health registry's current degraded view (the
// pristine H without a registry), and the cache key carries the view's
// fingerprint so health transitions never serve a stale-mode program.
func (c *Compiler) PlanContext(ctx context.Context, shape tensor.GemmShape) (*poly.Program, error) {
	if shape.Valid() {
		c.tracker.Observe(shape)
	}
	v, fp := c.currentView()
	c.maybeReplanOnChange(v, fp)
	return c.planForView(ctx, shape, v, fp)
}

// planForView is the cached singleflight plan path against one pinned view.
func (c *Compiler) planForView(ctx context.Context, shape tensor.GemmShape, v health.View, fp string) (*poly.Program, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("core: invalid shape %v", shape)
	}
	for {
		c.mu.Lock()
		key := cacheKey{shape: shape, lib: c.libHash, fp: fp}
		if prog, ok := c.cache.get(key); ok {
			c.mu.Unlock()
			return prog, nil
		}
		if call, ok := c.inflight[key]; ok {
			c.parked.Add(1)
			c.mu.Unlock()
			select {
			case <-call.done:
				c.parked.Add(-1)
				if call.err == nil {
					return call.prog, nil
				}
				if isCtxErr(call.err) && ctx.Err() == nil {
					continue // leader's deadline, not ours: retry as leader
				}
				return nil, call.err
			case <-ctx.Done():
				c.parked.Add(-1)
				return nil, ctx.Err()
			}
		}
		call := &planCall{done: make(chan struct{})}
		c.inflight[key] = call
		c.mu.Unlock()

		// Materialize the view's planner before planFn runs, so the
		// default planFn (and any injected seam that cares) can resolve
		// fp without re-deriving the view.
		c.plannerForView(v, fp)
		prog, stats, err := c.planIsolated(ctx, shape, fp)

		c.mu.Lock()
		delete(c.inflight, key)
		if err == nil {
			c.cache.add(key, prog)
			c.planCount++
			c.planStats.Candidates += stats.Candidates
			c.planStats.PrunedAnchors += stats.PrunedAnchors
			c.planStats.PrunedCandidates += stats.PrunedCandidates
			c.planStats.Elapsed += stats.Elapsed
			if fp != "" {
				c.degradedPlans++
			}
		}
		c.mu.Unlock()

		call.prog, call.err = prog, err
		close(call.done)
		return prog, err
	}
}

// replanLimit bounds how many hot shapes a health-view change replans in the
// background; replanTimeout bounds each replan.
const (
	replanLimit   = 8
	replanTimeout = 2 * time.Second
)

// maybeReplanOnChange detects a health-view generation change and kicks off
// background replanning of the most recently used cached shapes against the
// new view. Requests arriving meanwhile are not blocked: they either hit the
// freshly planned (shape, fp) entries or plan on demand — and until a
// degraded plan lands, PlanOrFallback still answers with the always-legal
// program.
func (c *Compiler) maybeReplanOnChange(v health.View, fp string) {
	if c.hreg == nil {
		return
	}
	c.mu.Lock()
	if v.Generation == c.lastGen {
		c.mu.Unlock()
		return
	}
	c.lastGen = v.Generation
	shapes := c.cache.shapesMRU(replanLimit)
	c.mu.Unlock()
	if len(shapes) == 0 {
		return
	}
	c.replanning.Add(1)
	go func() {
		defer c.replanning.Done()
		for _, s := range shapes {
			ctx, cancel := context.WithTimeout(context.Background(), replanTimeout)
			_, err := c.planForView(ctx, s, v, fp)
			cancel()
			c.mu.Lock()
			if err == nil {
				c.replans++
			}
			c.mu.Unlock()
		}
	}()
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// planIsolated runs the planner with panic isolation: a panicking planner
// (corrupted library, cost-model bug) becomes an error the serving layer can
// degrade on, instead of killing the process.
func (c *Compiler) planIsolated(ctx context.Context, shape tensor.GemmShape, fp string) (prog *poly.Program, stats poly.PlanStats, err error) {
	defer func() {
		if r := recover(); r != nil {
			c.mu.Lock()
			c.plannerPanics++
			c.mu.Unlock()
			c.panicObs.Inc()
			prog, err = nil, fmt.Errorf("core: planner panic for %v: %v", shape, r)
		}
	}()
	ctx, sp := c.o.T().Start(ctx, "core.plan")
	defer sp.End()
	prog, stats, err = c.planFn(ctx, shape, fp)
	if err == nil {
		c.planTotal.Inc()
		c.planLatency.Observe(stats.Elapsed.Seconds())
		c.planCandObs.Add(int64(stats.Candidates))
		c.planPruneObs.Add(int64(stats.PrunedAnchors))
		c.planBoundObs.Add(int64(stats.PrunedCandidates))
	}
	return prog, stats, err
}

// Lookup returns the program cached for shape under the current health view
// and library, or nil. It is the hit path of PlanOrFallback and nothing else:
// a hit refreshes recency, counts as a cache hit and feeds the traffic
// tracker; an absent entry counts no miss (the caller goes on to
// PlanOrFallback, which counts it) and starts no planning. Callers that can
// do something useful with "not cached yet" — the graph runtime hands only
// those ops to its plan-ahead pool — ask here first.
func (c *Compiler) Lookup(shape tensor.GemmShape) *poly.Program {
	prog, _, _ := c.lookup(shape)
	return prog
}

// lookup is Lookup, also returning the view it probed so a miss plans against
// the same one. Invalid shapes are never cached, so they always return nil.
func (c *Compiler) lookup(shape tensor.GemmShape) (*poly.Program, health.View, string) {
	v, fp := c.currentView()
	c.maybeReplanOnChange(v, fp)
	c.mu.Lock()
	prog := c.cache.hit(cacheKey{shape: shape, lib: c.libHash, fp: fp})
	c.mu.Unlock()
	if prog != nil {
		c.tracker.Observe(shape)
	}
	return prog, v, fp
}

// PlanOrFallback returns the optimized program for shape, degrading to the
// always-legal single-kernel program (local padding makes it valid for every
// positive shape, §3.4) when planning fails, panics, or exceeds ctx's
// deadline. degraded reports whether the fallback path was taken. Fallback
// programs are not cached, so a later request retries full polymerization.
// Only an invalid shape or an unusable library yields an error.
func (c *Compiler) PlanOrFallback(ctx context.Context, shape tensor.GemmShape) (prog *poly.Program, degraded bool, err error) {
	prog, v, fp := c.lookup(shape)
	if prog != nil {
		return prog, false, nil
	}
	if shape.Valid() {
		c.tracker.Observe(shape)
	}
	prog, err = c.planForView(ctx, shape, v, fp)
	if err == nil {
		return prog, false, nil
	}
	if !shape.Valid() {
		return nil, false, err
	}
	// The fallback is built against the same view the failed plan
	// targeted: single-kernel legality is shape-local, and its wave count
	// should price the hardware that will actually run it.
	fb, ferr := poly.FallbackProgram(c.plannerForView(v, fp).Lib, shape)
	if ferr != nil {
		return nil, false, errors.Join(err, ferr)
	}
	c.mu.Lock()
	c.fallbacks++
	c.mu.Unlock()
	c.fallbackObs.Inc()
	return fb, true, nil
}

// PlanUncached runs the online stage without consulting or filling the
// cache, returning its statistics — used to measure polymerization overhead.
func (c *Compiler) PlanUncached(shape tensor.GemmShape) (*poly.Program, poly.PlanStats, error) {
	return c.PlanUncachedContext(context.Background(), shape)
}

// PlanUncachedContext is PlanUncached under a caller-supplied context, with
// the same panic isolation as the cached path. It always targets the
// pristine H — overhead measurements want the paper's configuration.
func (c *Compiler) PlanUncachedContext(ctx context.Context, shape tensor.GemmShape) (*poly.Program, poly.PlanStats, error) {
	return c.planIsolated(ctx, shape, "")
}

// PlanStats returns the number of online plans performed and their summed
// search statistics.
func (c *Compiler) PlanStats() (int, poly.PlanStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planCount, c.planStats
}

// GEMM plans (or reuses) a program for the operand shapes and executes it
// numerically: C = A × B.
func (c *Compiler) GEMM(a, b *tensor.Matrix) (*tensor.Matrix, error) {
	return c.GEMMContext(context.Background(), a, b)
}

// GEMMContext is GEMM under a caller-supplied context bounding the planning
// stage.
func (c *Compiler) GEMMContext(ctx context.Context, a, b *tensor.Matrix) (*tensor.Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("core: GEMM dim mismatch %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	prog, err := c.PlanContext(ctx, tensor.GemmShape{M: a.Rows, N: b.Cols, K: a.Cols})
	if err != nil {
		return nil, err
	}
	return engine.Execute(prog, a, b)
}

// Conv plans and executes a convolution through the implicit-GEMM path.
func (c *Compiler) Conv(in, filters *tensor.Tensor4, shape tensor.ConvShape) (*tensor.Tensor4, error) {
	return c.ConvContext(context.Background(), in, filters, shape)
}

// ConvContext is Conv under a caller-supplied context bounding the planning
// stage.
func (c *Compiler) ConvContext(ctx context.Context, in, filters *tensor.Tensor4, shape tensor.ConvShape) (*tensor.Tensor4, error) {
	if !shape.Valid() {
		return nil, fmt.Errorf("core: invalid conv shape %v", shape)
	}
	prog, err := c.PlanContext(ctx, shape.GemmShape())
	if err != nil {
		return nil, err
	}
	return engine.ExecuteConv(prog, in, filters, shape)
}

// Simulate plans a shape and returns its simulated execution on the target —
// the substrate's stand-in for a wall-clock measurement.
func (c *Compiler) Simulate(shape tensor.GemmShape) (sim.Result, error) {
	prog, err := c.Plan(shape)
	if err != nil {
		return sim.Result{}, err
	}
	return prog.Simulate(c.lib.HW), nil
}

// sharedLibs caches offline libraries per (hardware, options) so tests,
// benchmarks and examples pay the offline stage once per process. The key is
// the hardware's whole content, not its name: a modified preset under its
// preset name is another device.
var (
	sharedMu   sync.Mutex
	sharedLibs = map[sharedKey]*tune.Library{}
)

type sharedKey struct {
	h   hw.Hardware
	opt tune.Options
}

// SharedLibrary returns a process-wide cached offline library.
func SharedLibrary(h hw.Hardware, opt tune.Options) (*tune.Library, error) {
	key := sharedKey{h, opt}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if lib, ok := sharedLibs[key]; ok {
		return lib, nil
	}
	lib, err := tune.Generate(h, opt)
	if err != nil {
		return nil, err
	}
	sharedLibs[key] = lib
	return lib, nil
}
