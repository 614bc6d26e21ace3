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

// maxPlanWorkers bounds the pipeline's concurrent planner goroutines; fewer
// run when PlanAhead is smaller.
const maxPlanWorkers = 4

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
	for w := 0; w < min(r.cfg.PlanAhead, maxPlanWorkers, len(missed)); w++ {
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
	if res, ok := r.simCache.Get(key); ok {
		r.pe.addStage(res)
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
	r.simCache.Put(key, res)
	r.pe.addStage(res)
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

// peCycles are whole-cycle PE counters: the sum of stage makespans and the
// per-PE busy sums. A stage's values are truncated toward zero before they are
// added. Truncation is monotone, so no PE's busy count passes the makespan
// count, and integer sums are exact, so a total does not depend on the order
// its stages were added in. A degraded stage's shorter series folds into the
// prefix (survivor positions): an accepted approximation while quarantines
// are live.
type peCycles struct {
	stage int64
	busy  []int64
}

// addStage adds one stage result's makespan and per-PE busy cycles.
func (c *peCycles) addStage(res *sim.Result) {
	c.stage += int64(res.Cycles)
	c.grow(len(res.PEBusy))
	for i, b := range res.PEBusy {
		c.busy[i] += int64(b)
	}
}

// peRun is one run of equal per-PE totals: every PE from the previous run's
// end up to end added n.
type peRun struct {
	end int
	n   int64
}

// runs encodes the per-PE totals as runs of equal values. A served graph's
// totals have a handful of runs where the dense vector has one value per PE.
func (c *peCycles) runs() []peRun {
	n := 0
	for i, b := range c.busy {
		if i == 0 || b != c.busy[i-1] {
			n++
		}
	}
	out := make([]peRun, 0, n)
	for i, b := range c.busy {
		if i > 0 && b == c.busy[i-1] {
			out[len(out)-1].end = i + 1
			continue
		}
		out = append(out, peRun{end: i + 1, n: b})
	}
	return out
}

// addRuns adds a stored total: stage makespan cycles and run-length per-PE
// busy cycles, the same integer sums as adding the dense vector.
func (c *peCycles) addRuns(stage int64, runs []peRun) {
	c.stage += stage
	if len(runs) == 0 {
		return
	}
	c.grow(runs[len(runs)-1].end)
	i := 0
	for _, run := range runs {
		for ; i < run.end; i++ {
			c.busy[i] += run.n
		}
	}
}

func (c *peCycles) grow(n int) {
	if len(c.busy) < n {
		c.busy = append(c.busy, make([]int64, n-len(c.busy))...)
	}
}

// simCacheCap bounds the stage-simulation memo. No served workload fills it
// (model-dynamic peaks near 3 100 distinct stages, generate-unique near 1 000),
// and it is what serves a graph re-interpreted after a plan-cache eviction:
// halving it doubled model-dynamic's allocation per request.
const simCacheCap = 4096
