package graphrt

import (
	"context"
	"time"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// pipeline is one execution's plan-ahead state: a ticket per op (zero for
// OpOther). Ops whose program is already in the plan cache are ticketed
// synchronously; of the rest, the first op of each shape
// goes to a bounded worker pool that runs at most PlanAhead ops past the
// executor's consumption point, and the later ops of that shape ask the cache
// again when the executor reaches them.
type pipeline struct {
	tickets []ticket
	// ahead holds one token per dispatched-but-unconsumed plan; the
	// dispatcher acquires before handing a job to the pool, the executor
	// releases on consumption (the worker does, for a job whose op the
	// executor planned itself), bounding the lookahead to cap(ahead).
	ahead chan struct{}
	// cancel stops the pool; nil when every plan was a cache hit and no
	// goroutine was started.
	cancel context.CancelFunc
}

// stop ends the pool's goroutines (the executor defers it, so an aborted
// execution leaks nothing).
func (p *pipeline) stop() {
	if p != nil && p.cancel != nil {
		p.cancel()
	}
}

// startPipeline tickets the ops in `order` (the flattened stage schedule).
// Returns nil when PlanAhead is 0: the executor then plans inline, on its
// critical path — the sequential mode. The plan cache is asked first, so a
// warm execution costs one lookup per op and starts no goroutine, channel,
// context or timer; the shapes it does not hold are planned ahead by the pool,
// once each and in schedule order, which is what hides a cold plan behind the
// stages before it. A model repeats its few shapes across its layers, so a
// cold graph hands the pool a handful of plans, not one job per op: what one
// execution costs does not depend on how fast goroutines hand jobs to each
// other.
func (r *Runtime) startPipeline(ctx context.Context, g nn.Graph, order []int) *pipeline {
	if r.cfg.PlanAhead <= 0 {
		return nil
	}
	p := &pipeline{tickets: make([]ticket, len(g.Ops))}
	var missed []int
	var pooled map[tensor.GemmShape]bool
	for _, i := range order {
		if g.Ops[i].Kind == nn.OpOther {
			continue
		}
		if r.lookupFn != nil {
			shape := g.Ops[i].Gemm
			if prog := r.lookupFn(shape); prog != nil {
				p.tickets[i].prog = prog
				continue
			}
			if pooled[shape] {
				p.tickets[i].repeat = true
				continue
			}
			if pooled == nil {
				pooled = make(map[tensor.GemmShape]bool)
			}
			pooled[shape] = true
		}
		p.tickets[i].done = make(chan struct{})
		missed = append(missed, i)
	}
	if len(missed) == 0 {
		return p
	}

	ctx, p.cancel = context.WithCancel(ctx)
	p.ahead = make(chan struct{}, r.cfg.PlanAhead)
	jobs := make(chan int)
	go func() { // dispatcher: feeds jobs in schedule order, k-bounded
		defer close(jobs)
		for _, i := range missed {
			select {
			case p.ahead <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < min(r.cfg.Workers, len(missed)); w++ {
		go func() {
			for i := range jobs {
				t := &p.tickets[i]
				if !t.claimed.CompareAndSwap(false, true) {
					// The executor got here first and planned the op
					// itself; hand back the token dispatched with the job.
					<-p.ahead
					continue
				}
				r.plan(ctx, t, g.Ops[i].Gemm)
				close(t.done)
			}
		}()
	}
	return p
}

// plan fills t through the planner seam, timing it.
func (r *Runtime) plan(ctx context.Context, t *ticket, shape tensor.GemmShape) {
	start := time.Now()
	t.prog, t.degraded, t.err = r.planFn(ctx, shape)
	t.wall = time.Since(start)
}

// planInline plans op t on the executor's critical path: the whole planning
// wall is executor stall.
func (r *Runtime) planInline(ctx context.Context, t *ticket, shape tensor.GemmShape, rep *Report) {
	r.plan(ctx, t, shape)
	rep.Stalls++
	rep.PlanWall += t.wall
	rep.StallWall += t.wall
}

// consumePlan hands the executor op i's program: from the pipeline when one
// is running (accounting stall vs hidden wall time), inline otherwise.
func (r *Runtime) consumePlan(ctx context.Context, pipe *pipeline, i int, shape tensor.GemmShape, rep *Report) (*ticket, error) {
	rep.Plans++
	var t *ticket
	switch {
	case pipe == nil:
		// Sequential mode.
		t = &ticket{}
		r.planInline(ctx, t, shape, rep)
	case pipe.tickets[i].repeat:
		// An earlier op of this execution had the same shape and has been
		// consumed, so its plan is in the cache by now — unless it degraded
		// (fallbacks are not cached) or was evicted already.
		t = &pipe.tickets[i]
		if t.prog = r.lookupFn(shape); t.prog == nil {
			r.planInline(ctx, t, shape, rep)
		}
	case pipe.tickets[i].done == nil:
		// Plan-cache hit, ticketed at start: nothing was planned, nothing
		// waited for.
		return &pipe.tickets[i], nil
	default:
		t = &pipe.tickets[i]
		if t.claimed.CompareAndSwap(false, true) {
			// No worker has started this plan. Planning it here costs the
			// executor the plan; sleeping until a worker wakes up, plans it
			// and wakes the executor costs the plan and two handoffs whose
			// length is the host's to decide.
			r.planInline(ctx, t, shape, rep)
			break
		}
		var stall time.Duration
		select {
		case <-t.done:
		default:
			// A worker is planning it: the executor stalls until the plan is
			// delivered — the planning time the pipeline failed to hide.
			waitStart := time.Now()
			select {
			case <-t.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			stall = time.Since(waitStart)
			rep.Stalls++
		}
		<-pipe.ahead // release the lookahead token
		rep.PlanWall += t.wall
		rep.StallWall += stall
		if hidden := t.wall - stall; hidden > 0 {
			rep.HiddenWall += hidden
		}
	}
	if t.degraded {
		rep.Degraded++
	}
	return t, t.err
}

// runStageCached executes one stage's co-scheduled ops, memoizing by key:
// model graphs repeat the same operator stack across layers, and the
// simulator is deterministic, so identical stages under the same device view
// cost identical cycles. The memo is asked first; only a miss lowers the
// stage's programs to tasks (on lowerOn — the view the stage runs under,
// except for the recovery ladder's retry-in-place) and hits the simulator, so
// a replayed stage costs one map lookup. The fingerprint in the key keeps
// healthy and degraded executions strictly separated (no
// cross-contamination), and recovery attempts miss because their salts
// differ. Only the miss earns a span; replays are aggregated into the parent
// graphrt.execute span's counters.
func (r *Runtime) runStageCached(ctx context.Context, stage int, key stageKey, h hw.Hardware, v health.View, ops []stageOp, lowerOn hw.Hardware) *sim.Result {
	r.mu.Lock()
	if res, ok := r.simCache[key]; ok {
		r.accumulateStageLocked(res)
		r.mu.Unlock()
		return res
	}
	r.mu.Unlock()

	tasks := r.lowerFn(ops, lowerOn)
	_, sp := r.o.T().Start(ctx, "graphrt.stage")
	res := new(sim.Result)
	*res = r.simFn(h, v, tasks, key.salt)
	sp.Attr("stage", float64(stage)).Attr("tasks", float64(len(tasks))).
		Attr("cycles", res.Cycles).End()

	r.mu.Lock()
	if len(r.simCache) >= simCacheCap {
		// The cache is per-process scratch, not a correctness structure:
		// dropping it wholesale keeps memory flat under shape churn.
		r.simCache = make(map[stageKey]*sim.Result)
	}
	r.simCache[key] = res
	r.accumulateStageLocked(res)
	r.mu.Unlock()
	return res
}

// lowerStage materializes the stage's task batch from its programs on the
// given hardware: each op's tasks, count times, in op order.
func lowerStage(ops []stageOp, h hw.Hardware) []sim.Task {
	n := 0
	for _, op := range ops {
		n += op.prog.NumTasks() * op.count
	}
	tasks := make([]sim.Task, 0, n)
	for _, op := range ops {
		batch := op.prog.Tasks(h)
		for i := 0; i < op.count; i++ {
			tasks = append(tasks, batch...)
		}
	}
	return tasks
}

// accumulateStageLocked folds one executed (or memo-replayed) stage into the
// cumulative utilization counters. Callers hold r.mu. The memoized result is
// shared with the compiled executions that replay it and only ever read; its
// PEBusy slice is never aliased into agg.PEBusy. Degraded stages report
// fewer PEs than healthy ones; the shorter series folds into the prefix, so
// cumulative utilization reflects survivor positions — an accepted
// approximation while quarantines are live.
func (r *Runtime) accumulateStageLocked(res *sim.Result) {
	r.agg.GemmStageCycles += res.Cycles
	if len(res.PEBusy) == 0 {
		return
	}
	if len(r.agg.PEBusy) < len(res.PEBusy) {
		grown := make([]float64, len(res.PEBusy))
		copy(grown, r.agg.PEBusy)
		r.agg.PEBusy = grown
	}
	for i, b := range res.PEBusy {
		r.agg.PEBusy[i] += b
	}
}

// simCacheCap bounds the stage-simulation memo.
const simCacheCap = 4096
