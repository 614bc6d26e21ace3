// Package graphrt is the graph runtime: it executes whole model graphs
// (nn.Graph) end to end on the simulator substrate, the missing layer
// between per-operator planning (core.Compiler) and the end-to-end results
// of §5.2.2–§5.2.4. It contributes five things the per-operator path lacks:
//
//   - a dependency-aware schedule: ops run in topological stages derived
//     from the graph's edges; ops sharing a stage (and the Count instances
//     of per-head GEMMs) co-schedule on the device in one simulator launch;
//
//   - an asynchronous plan-ahead pipeline: ops whose program the compiler
//     already caches are answered by one lookup each; a bounded worker pool
//     plans the other shapes, once each, while the executor runs the current
//     stage, hiding the online polymerization cost behind execution — the
//     "on-the-fly" story at model granularity. Per-graph stats separate
//     hidden planning time from planning stalls (wall time the executor
//     waited on an unfinished plan or planned on its own critical path);
//
//   - a stage memo asked before anything is lowered: a stage is identified
//     by the content of its programs, their instance counts, the health
//     view and the recovery attempt's fault salt, and only a stage the memo
//     has not seen is lowered to tasks and simulated (see key.go,
//     pipeline.go);
//
//   - compiled executions: a graph that has run cleanly before is identified
//     by the content of its ops and replayed — after one plan-cache lookup
//     per distinct shape confirms its programs — without deriving schedule,
//     memory plan or stage keys again (see compiled.go);
//
//   - a global-memory planner: liveness-based first-fit assignment of
//     inter-op tensors against H.M_global, reusing freed regions and
//     charging spill traffic as bandwidth-bound cycles when the working
//     set exceeds device memory (see mem.go).
package graphrt

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/obs"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// Config tunes a Runtime. The zero value is the sequential executor: plans
// are produced inline, on the critical path, exactly when needed.
type Config struct {
	// PlanAhead is the number of ops the planning pipeline may run ahead
	// of the executor; 0 disables the pipeline (inline planning).
	PlanAhead int

	// PlanTimeout bounds one op's online planning; exceeding it degrades
	// to the always-legal fallback program (0 = no deadline, negative =
	// already expired, the forced-degradation knob of the serve layer).
	PlanTimeout time.Duration

	// Obs optionally attaches tracing to graph execution; nil (the
	// default) runs unobserved at zero cost.
	Obs *obs.Obs

	// Health, when non-nil, turns on stage-level self-healing: every
	// stage executes against the registry's current degraded view, stage
	// outcomes feed the registry, and a dirty stage walks the escalation
	// ladder (retry-in-place -> migrate to H' -> replan on H' -> typed
	// StageError) instead of surfacing faults to the caller.
	Health *health.Registry
}

// maxStageAttempts bounds total executions of one stage, the initial run
// included. Rungs 1 and 2 run once each; rung 3 repeats until the budget is
// spent. What heals a transient-fault storm is the number of fresh draws a
// stage gets, and the ladder is the only recovery there is: no layer above
// re-runs a graph (DESIGN §11 has the chaos sweep behind the number).
const maxStageAttempts = 16

// Runtime executes model graphs against one compiler and its hardware.
// It is safe for concurrent use; cumulative stats aggregate across calls.
type Runtime struct {
	comp *core.Compiler
	h    hw.Hardware
	cfg  Config
	o    *obs.Obs

	// planFn is the per-op planning entry; a seam tests use to inject
	// slow planners. Defaults to PlanOrFallback under cfg.PlanTimeout.
	planFn func(ctx context.Context, shape tensor.GemmShape) (*poly.Program, bool, error)

	// simFn executes one stage's task batch; a seam the serve layer uses
	// for fault injection and tests use for slow devices. v is the health
	// view the stage runs under, so injected fault schedules can be
	// remapped onto the shrunken survivor numbering. Defaults to sim.Run
	// (salt and view ignored).
	simFn func(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result

	// lowerFn turns a stage's programs into its task batch on a hardware
	// view (lowerStage); a seam tests use to count lowerings and to see
	// which view a batch was lowered on.
	lowerFn func(ops []stageOp, h hw.Hardware) []sim.Task

	// lookupFn is the hit-only plan-cache probe the pipeline asks before
	// planFn (core.Compiler.Lookup); a test that replaces planFn and must
	// see every plan request sets it to nil.
	lookupFn func(shape tensor.GemmShape) *poly.Program

	mu  sync.Mutex
	agg Stats // all but the whole-unit tallies below
	pe  peCycles
	// cycles and spillBytes tally Stats.Cycles and Stats.SpillBytes in whole
	// units, each execution's truncated toward zero, so the totals do not
	// depend on the order executions complete in.
	cycles, spillBytes int64
	// simCache memoizes stage executions. The full Result is retained:
	// memoized replays still accumulate per-PE utilization, and the recovery
	// ladder needs the fault breakdown (faulted, stranded, dead PEs) when a
	// cached dirty stage replays. Compiled executions hold totals, not these
	// results, so evicting a memo entry leaves every compiled entry whole.
	simCache *core.LRU[stageKey, *sim.Result]
	digests  *core.LRU[*poly.Program, digest]
	// compiled holds whole clean executions by graph content (compiled.go);
	// the counters are its CompiledStats.
	compiled                                        *core.LRU[compiledKey, compiledExec]
	compiledHits, compiledMisses, compiledEvictions int64

	// noCompile switches the compiled table off and interpreted counts the
	// executions that went through the interpreter: the seams the tests that
	// hold compiled ≡ interpreted, and that a stale entry is never replayed,
	// are built on.
	noCompile   bool
	interpreted atomic.Int64
}

// Stats are the runtime's cumulative counters, aggregated across Execute
// calls (exported via /stats in the serving layer).
type Stats struct {
	// Graphs and Stages count completed executions and executed stages.
	Graphs, Stages int64
	// Plans counts planning-pipeline results consumed (including cache
	// hits inside the compiler); Stalls counts the subset the executor
	// had to wait for.
	Plans, Stalls int64
	// PlanWall is total planning wall time; StallWall the part the
	// executor spent blocked on unfinished plans; HiddenWall the part
	// overlapped with execution (per-op max(0, wall−stall), so
	// PlanWall ≤ StallWall + HiddenWall always holds).
	PlanWall, StallWall, HiddenWall time.Duration
	// Degraded counts ops answered with the fallback program.
	Degraded int64
	// FaultedTasks accumulates simulator-reported faulted tasks that the
	// runtime could not absorb (no recovery, or recovery exhausted).
	FaultedTasks int64
	// Stage-recovery ladder counters: stages that recovered via an
	// in-place retry, by migrating onto the degraded view, or by
	// replanning their ops against it — and stages that exhausted the
	// ladder.
	RetriedStages, MigratedStages, ReplannedStages, UnrecoverableStages int64
	// Cycles and SpillBytes accumulate end-to-end device cycles and
	// memory-planner spill traffic in whole units, each execution's
	// truncated toward zero, in any execution order.
	Cycles     float64
	SpillBytes float64
	// GemmStageCycles accumulates co-scheduled GEMM stage makespans — the
	// denominator of per-PE utilization. PEBusy accumulates per-PE busy
	// cycles across stages (length = NumPEs once any stage has run);
	// memoized stage replays accumulate like fresh simulations. Both count
	// whole cycles, each stage's truncated toward zero, in any stage order.
	GemmStageCycles float64
	PEBusy          []float64
	// Compiled is the compiled-execution table's behaviour.
	Compiled CompiledStats
}

// CompiledStats reports the compiled-execution table. Hits count executions
// answered by a replay; Misses count executions the table could have answered
// that went through the interpreter, for want of an entry or because the
// entry's guard failed. Size is the current entry count. JSON tags match the
// serving layer's /stats.
type CompiledStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Size      int   `json:"size"`
}

// PEUtilization returns each PE's busy fraction of the cumulative
// co-scheduled stage time, or nil before any GEMM stage has run.
func (s Stats) PEUtilization() []float64 {
	if s.GemmStageCycles <= 0 || len(s.PEBusy) == 0 {
		return nil
	}
	u := make([]float64, len(s.PEBusy))
	for i, b := range s.PEBusy {
		u[i] = b / s.GemmStageCycles
	}
	return u
}

// WaveImbalance scores the spread of the cumulative per-PE busy series,
// (max − min)/max; see sim.Imbalance.
func (s Stats) WaveImbalance() float64 { return sim.Imbalance(s.PEBusy) }

// Report describes one graph execution.
type Report struct {
	Graph  string
	Ops    int
	Stages int

	// Cycles is the end-to-end device time: co-scheduled GEMM/conv stage
	// makespans + bandwidth-bound OpOther work + spill traffic.
	Cycles      float64
	GemmCycles  float64
	OtherCycles float64
	SpillCycles float64

	// Plan-ahead accounting (wall clock, this process).
	Plans      int
	Stalls     int
	PlanWall   time.Duration
	StallWall  time.Duration
	HiddenWall time.Duration

	Degraded     int
	FaultedTasks int

	// RecoveredStages counts stages that hit faults but were healed by
	// the recovery ladder; RecoveredFaults the faulted tasks absorbed
	// doing so (not included in FaultedTasks).
	RecoveredStages int
	RecoveredFaults int

	Mem MemReport
}

// HiddenFraction is the share of online planning time hidden behind
// execution — the plan-ahead pipeline's figure of merit.
func (r Report) HiddenFraction() float64 {
	if r.PlanWall <= 0 {
		return 0
	}
	return float64(r.HiddenWall) / float64(r.PlanWall)
}

// New builds a runtime over a ready compiler. When cfg.Health is set it is
// also attached to the compiler, so planning and execution share one view of
// the degrading device.
func New(comp *core.Compiler, cfg Config) *Runtime {
	if cfg.Health != nil {
		comp.SetHealth(cfg.Health)
	}
	r := &Runtime{
		comp:     comp,
		h:        comp.Hardware(),
		cfg:      cfg,
		o:        cfg.Obs,
		lowerFn:  lowerStage,
		lookupFn: comp.Lookup,
		simCache: core.NewLRU[stageKey, *sim.Result](simCacheCap),
		digests:  core.NewLRU[*poly.Program, digest](digestCap),
		compiled: core.NewLRU[compiledKey, compiledExec](compiledCap),
	}
	r.planFn = func(ctx context.Context, shape tensor.GemmShape) (*poly.Program, bool, error) {
		pctx := ctx
		var cancel context.CancelFunc
		if cfg.PlanTimeout != 0 {
			pctx, cancel = context.WithTimeout(ctx, cfg.PlanTimeout)
			defer cancel()
		}
		return comp.PlanOrFallback(pctx, shape)
	}
	r.simFn = func(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result {
		return sim.Run(h, tasks)
	}
	return r
}

// SetSimulator overrides stage execution (fault injection in the serving
// layer). fn must be deterministic for a given (h, v, tasks, salt).
func (r *Runtime) SetSimulator(fn func(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result) {
	r.simFn = fn
}

// healthView snapshots the registry's current view together with its
// fingerprint and the effective hardware H' a stage should run on. Without a
// registry the pristine device is returned.
func (r *Runtime) healthView() (health.View, string, hw.Hardware) {
	if r.cfg.Health == nil {
		return health.View{}, "", r.h
	}
	v := r.cfg.Health.View()
	fp := v.Fingerprint()
	if fp == "" {
		return v, "", r.h
	}
	return v, fp, v.Apply(r.h)
}

// Stats returns the cumulative counters. PEBusy is a fresh slice: callers
// (metric scrapes, /stats snapshots) may hold the result while executions
// keep accumulating.
func (r *Runtime) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.agg
	s.Cycles = float64(r.cycles)
	s.SpillBytes = float64(r.spillBytes)
	s.GemmStageCycles = float64(r.pe.stage)
	for _, b := range r.pe.busy {
		s.PEBusy = append(s.PEBusy, float64(b))
	}
	s.Compiled = CompiledStats{
		Hits:      r.compiledHits,
		Misses:    r.compiledMisses,
		Evictions: r.compiledEvictions,
		Size:      r.compiled.Len(),
	}
	return s
}

// ticket is one op's plan: filled synchronously from the plan cache, by the
// plan-ahead pool, or inline. done is non-nil only for a plan handed to the
// pool; claimed is taken by whoever plans it, a pool worker or — when no
// worker has started by the time the plan is needed — the executor itself.
// repeat marks an op whose shape an earlier pooled op of the same execution
// already covers.
type ticket struct {
	done     chan struct{}
	prog     *poly.Program
	err      error
	wall     time.Duration
	claimed  atomic.Bool
	repeat   bool
	degraded bool
}

// Execute runs the graph end to end and returns its report. A stage that
// exhausts the recovery ladder fails the execution with a *StageError.
func (r *Runtime) Execute(ctx context.Context, g nn.Graph) (Report, error) {
	// Ask the compiled table first; failing that the interpreter below is the
	// compile step, recording what it does as it goes.
	rec := recording{off: r.noCompile || r.lookupFn == nil}
	if !rec.off {
		_, fp, _ := r.healthView()
		rec.key = compiledKey{graph: digestGraph(g), fp: fp}
		if rep, ok := r.replay(ctx, g, rec.key); ok {
			return rep, nil
		}
		r.mu.Lock()
		r.compiledMisses++
		r.mu.Unlock()
	}
	r.interpreted.Add(1)
	stages, err := g.Schedule()
	if err != nil {
		return Report{}, err
	}
	rep := Report{Graph: g.Name, Ops: len(g.Ops), Stages: len(stages)}
	ctx, esp := r.o.T().Start(ctx, "graphrt.execute")
	defer func() {
		esp.Attr("ops", float64(rep.Ops)).Attr("stages", float64(rep.Stages)).
			Attr("cycles", rep.Cycles).End()
	}()
	_, msp := r.o.T().Start(ctx, "graphrt.memplan")
	rep.Mem = planMemory(g, stages, r.h)
	msp.Attr("buffers", float64(rep.Mem.Buffers)).
		Attr("spill_bytes", rep.Mem.SpillBytes).End()
	rep.SpillCycles = rep.Mem.SpillBytes / r.h.GlobalBytesPerCycle

	// Flatten the stage schedule into the planning order and start the
	// plan-ahead pipeline (nil = inline planning).
	order := make([]int, 0, len(g.Ops))
	for _, stage := range stages {
		order = append(order, stage...)
	}
	pipe := r.startPipeline(ctx, g, order)
	defer pipe.stop()

	// Spans cover novel work only: each memo-missing stage gets a
	// graphrt.stage span inside runStageCached, while memoized replays —
	// the bulk of a deep model's stages — ride on the enclosing execute
	// span. Spanning all ~N stages of a decode graph would put hundreds of
	// span commits on a ~ms execution, busting the <2% overhead contract.
	var ops []stageOp
	for si, stage := range stages {
		// Only the stage's programs and its memo key are collected here;
		// runStageCached lowers them to tasks when the memo misses.
		ops = ops[:0]
		numTasks := 0
		// The health view is resolved per stage, not per graph: a PE
		// quarantined while stage k executes shrinks the hardware stage
		// k+1 runs on — mid-graph adaptation.
		v, fp, hEff := r.healthView()
		key := stageKey{fp: fp}
		for _, i := range stage {
			op := g.Ops[i]
			if op.Kind == nn.OpOther {
				rep.OtherCycles += op.OtherCycles(r.h) * float64(op.Count)
				continue
			}
			t, err := r.consumePlan(ctx, pipe, i, op.Gemm, &rep)
			if err != nil {
				return Report{}, fmt.Errorf("graphrt: graph %s op %s: %w", g.Name, op.Name, err)
			}
			ops = append(ops, stageOp{shape: op.Gemm, count: op.Count, prog: t.prog})
			d := r.progDigest(t.prog)
			key.add(d, op.Count)
			rec.planned(op.Gemm, d)
			numTasks += t.prog.NumTasks() * op.Count
		}
		if numTasks > 0 {
			memo := r.runStageCached(ctx, si, key, hEff, v, ops, hEff)
			rec.launched(key, memo)
			res := *memo
			r.observe(v, res)
			switch {
			case res.Clean():
				// Healthy stage.
			case r.cfg.Health != nil:
				recovered, err := r.recoverStage(ctx, g, si, ops, key, hEff, res, &rep)
				if err != nil {
					return Report{}, err
				}
				res = recovered
			default:
				// No registry, no recovery: the faults are reported as
				// they came back.
				rep.FaultedTasks += res.FaultedTasks + res.StrandedTasks
			}
			rep.GemmCycles += res.Cycles
		}
		if err := ctx.Err(); err != nil {
			return Report{}, err
		}
	}
	rep.Cycles = rep.GemmCycles + rep.OtherCycles + rep.SpillCycles

	r.mu.Lock()
	r.accumulateReportLocked(rep)
	r.storeLocked(&rec, rep)
	r.mu.Unlock()
	return rep, nil
}

// accumulateReportLocked folds one completed execution's report into the
// cumulative counters. Callers hold r.mu.
func (r *Runtime) accumulateReportLocked(rep Report) {
	r.agg.Graphs++
	r.agg.Stages += int64(rep.Stages)
	r.agg.Plans += int64(rep.Plans)
	r.agg.Stalls += int64(rep.Stalls)
	r.agg.PlanWall += rep.PlanWall
	r.agg.StallWall += rep.StallWall
	r.agg.HiddenWall += rep.HiddenWall
	r.agg.Degraded += int64(rep.Degraded)
	r.agg.FaultedTasks += int64(rep.FaultedTasks)
	r.cycles += int64(rep.Cycles)
	r.spillBytes += int64(rep.Mem.SpillBytes)
}
