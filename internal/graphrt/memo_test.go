package graphrt

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// These tests hold the order Execute works in: plan cache before the
// plan-ahead pool, stage memo before lowering, and a memo key that tells
// apart every two programs that lower differently.

// onePlan makes rt answer every plan request with whatever *cur points at,
// and switches the plan-cache probe off so the seam sees every request.
func onePlan(rt *Runtime, cur **poly.Program) {
	rt.lookupFn = nil
	rt.planFn = func(context.Context, tensor.GemmShape) (*poly.Program, bool, error) {
		return *cur, false, nil
	}
}

// TestStageMemoTellsKernelsApart is the regression test for the stage-memo
// collision: two programs for one shape with equal pattern, region count and
// task count, differing only in the kernel's K depth (or only in its pipeline
// depth), used to share a memo key, so the second was served the first one's
// cycles.
func TestStageMemoTellsKernelsApart(t *testing.T) {
	shape := tensor.GemmShape{M: 512, N: 512, K: 1024}
	program := func(uk, stages int) *poly.Program {
		p := &poly.Program{Shape: shape, Pattern: poly.PatternI, Regions: []poly.Region{{
			M: shape.M, N: shape.N, K: shape.K,
			Kern: kernel.New(64, 64, uk, kernel.Config{Stages: stages, Vec: 4}),
		}}}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		return p
	}
	g := nn.Graph{Name: "one", Ops: []nn.Op{{Name: "g", Kind: nn.OpGemm, Gemm: shape, Count: 3}}}

	for _, pair := range []struct {
		name string
		a, b *poly.Program
	}{
		{"UK", program(32, 2), program(64, 2)},
		{"Cfg.Stages", program(32, 2), program(32, 3)},
	} {
		for _, ahead := range []int{0, 2} {
			if pair.a.NumTasks() != pair.b.NumTasks() {
				t.Fatalf("%s: task counts differ, the pair cannot collide", pair.name)
			}
			rt := testRuntime(t, Config{PlanAhead: ahead})
			var cur *poly.Program
			onePlan(rt, &cur)
			var got [2]float64
			for i, p := range []*poly.Program{pair.a, pair.b} {
				cur = p
				rep, err := rt.Execute(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = rep.GemmCycles
				want := sim.Run(rt.h, lowerStage([]stageOp{{shape: shape, count: 3, prog: p}}, rt.h)).Cycles
				if math.Float64bits(rep.GemmCycles) != math.Float64bits(want) {
					t.Errorf("%s (plan-ahead %d): program %d ran %v cycles, its own tasks simulate to %v",
						pair.name, ahead, i, rep.GemmCycles, want)
				}
			}
			if got[0] == got[1] {
				t.Fatalf("%s: both programs cost %v cycles; the pair does not test the key", pair.name, got[0])
			}
		}
	}
}

// eagerReference executes g the way Execute used to: every stage lowered in
// full, every stage simulated, nothing memoized.
func eagerReference(t *testing.T, rt *Runtime, g nn.Graph) (cycles, gemm float64) {
	t.Helper()
	stages, err := g.Stages()
	if err != nil {
		t.Fatal(err)
	}
	var other float64
	for _, stage := range stages {
		var tasks []sim.Task
		for _, i := range stage {
			op := g.Ops[i]
			if op.Kind == nn.OpOther {
				other += op.OtherCycles(rt.h) * float64(op.Count)
				continue
			}
			prog, err := rt.comp.Plan(op.Gemm)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < op.Count; c++ {
				tasks = append(tasks, prog.Tasks(rt.h)...)
			}
		}
		if len(tasks) > 0 {
			gemm += sim.Run(rt.h, tasks).Cycles
		}
	}
	spill := planMemory(g, stages, rt.h).SpillBytes / rt.h.GlobalBytesPerCycle
	return gemm + other + spill, gemm
}

func TestLazyLoweringMatchesEager(t *testing.T) {
	var graphs []nn.Graph
	for _, seq := range []int{1, 37, 128, 512} {
		graphs = append(graphs, nn.Transformer(nn.BERTBaseConfig, seq, 1))
	}
	for _, d := range [][2]int{{1, 128}, {4, 256}, {8, 1024}} {
		graphs = append(graphs, nn.Llama2Decode(d[0], d[1]))
	}
	for _, h := range []hw.Hardware{hw.A100(), hw.Ascend910()} {
		rt := runtimeOn(t, h, Config{PlanAhead: 2})
		for _, g := range graphs {
			wantCycles, wantGemm := eagerReference(t, rt, g)
			for run := 0; run < 2; run++ { // cold memo, then warm
				rep, err := rt.Execute(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(rep.Cycles) != math.Float64bits(wantCycles) ||
					math.Float64bits(rep.GemmCycles) != math.Float64bits(wantGemm) {
					t.Errorf("%s %s run %d: cycles %v gemm %v, eager reference %v / %v",
						h.Name, g.Name, run, rep.Cycles, rep.GemmCycles, wantCycles, wantGemm)
				}
			}
		}
	}
}

// countingRuntime counts what a warm execution must not do: simulator calls,
// lowerings and plan requests that reach the planner seam.
type counts struct{ sims, lowerings, plans atomic.Int64 }

func countingRuntime(t *testing.T, cfg Config) (*Runtime, *counts) {
	rt := testRuntime(t, cfg)
	c := new(counts)
	rt.simFn = func(h hw.Hardware, _ health.View, tasks []sim.Task, _ uint64) sim.Result {
		c.sims.Add(1)
		return sim.Run(h, tasks)
	}
	rt.lowerFn = func(ops []stageOp, h hw.Hardware) []sim.Task {
		c.lowerings.Add(1)
		return lowerStage(ops, h)
	}
	plan := rt.planFn
	rt.planFn = func(ctx context.Context, s tensor.GemmShape) (*poly.Program, bool, error) {
		c.plans.Add(1)
		return plan(ctx, s)
	}
	return rt, c
}

// TestWarmExecuteOnlyLooksUp states what a warm execution costs: one
// plan-cache probe per distinct shape — the guard of the compiled execution —
// and no planning, lowering, simulation, goroutine or allocation.
func TestWarmExecuteOnlyLooksUp(t *testing.T) {
	rt, c := countingRuntime(t, Config{PlanAhead: 2})
	var probes atomic.Int64
	lookup := rt.lookupFn
	rt.lookupFn = func(s tensor.GemmShape) *poly.Program {
		probes.Add(1)
		return lookup(s)
	}
	g := nn.Llama2Decode(4, 256)
	distinct := int64(distinctShapes(g))
	ctx := context.Background()
	cold, err := rt.Execute(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if c.sims.Load() == 0 || c.lowerings.Load() != c.sims.Load() || c.plans.Load() == 0 {
		t.Fatalf("cold run: %d sims, %d lowerings, %d plans", c.sims.Load(), c.lowerings.Load(), c.plans.Load())
	}
	sims, lowerings, plans := c.sims.Load(), c.lowerings.Load(), c.plans.Load()
	probes.Store(0)
	hitsBefore, interpretedBefore := rt.comp.CacheStats().Hits, rt.interpreted.Load()

	before := runtime.NumGoroutine()
	warm, err := rt.Execute(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before the warm run, %d after", before, after)
	}
	if d := rt.interpreted.Load() - interpretedBefore; d != 0 {
		t.Errorf("warm run went through the interpreter %d times", d)
	}
	if d := c.sims.Load() - sims; d != 0 {
		t.Errorf("warm run made %d simulator calls", d)
	}
	if d := c.lowerings.Load() - lowerings; d != 0 {
		t.Errorf("warm run lowered %d stages", d)
	}
	if d := c.plans.Load() - plans; d != 0 {
		t.Errorf("warm run sent %d plans to the planner", d)
	}
	if got := probes.Load(); got != distinct {
		t.Errorf("warm run probed the plan cache %d times for %d distinct shapes", got, distinct)
	}
	if got := rt.comp.CacheStats().Hits - hitsBefore; got != distinct {
		t.Errorf("warm run counted %d plan-cache hits for %d distinct shapes", got, distinct)
	}
	if warm.Plans != cold.Plans || warm.Stalls != 0 || warm.StallWall != 0 || warm.PlanWall != 0 {
		t.Errorf("warm report: plans %d (cold %d) stalls %d stall wall %v plan wall %v",
			warm.Plans, cold.Plans, warm.Stalls, warm.StallWall, warm.PlanWall)
	}
	if math.Float64bits(warm.Cycles) != math.Float64bits(cold.Cycles) {
		t.Errorf("warm cycles %v, cold %v", warm.Cycles, cold.Cycles)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := rt.Execute(ctx, g); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm Execute allocates %.0f times", allocs)
	}
}

// TestColdGraphPlansEachShapeOnce: a cold graph asks the planner once per
// distinct shape — whether a pool worker or the executor got to the ticket
// first — and the ops that repeat a shape are answered by the plan cache, so
// planner calls, cache misses and cache hits are the same numbers however the
// goroutines interleave.
func TestColdGraphPlansEachShapeOnce(t *testing.T) {
	g := nn.Llama2Decode(1, 200)
	shapes := make(map[tensor.GemmShape]bool)
	gemms := 0
	for _, op := range g.Ops {
		if op.Kind != nn.OpOther {
			shapes[op.Gemm] = true
			gemms++
		}
	}
	distinct := int64(len(shapes))
	for run := 0; run < 20; run++ {
		rt, c := countingRuntime(t, Config{PlanAhead: 2})
		rep, err := rt.Execute(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.plans.Load(); got != distinct {
			t.Fatalf("run %d: %d planner calls for %d distinct shapes", run, got, distinct)
		}
		st := rt.comp.CacheStats()
		if st.Misses != distinct || st.Hits != int64(gemms)-distinct {
			t.Fatalf("run %d: %d misses, %d hits; want %d and %d", run, st.Misses, st.Hits, distinct, int64(gemms)-distinct)
		}
		if rep.Plans != gemms || rep.Stalls > int(distinct) {
			t.Fatalf("run %d: %d plans (%d GEMM ops), %d stalls", run, rep.Plans, gemms, rep.Stalls)
		}
		checkWallInvariants(t, rep)
	}
}

// TestWarmExecuteAllocBudget keeps lowering from creeping back in front of
// the memo in the interpreter — what a graph that cannot be compiled (a fused
// chain, a degraded plan) pays on every run: interpreting a warm
// Llama2Decode(4,256) measured 22 allocations; lowering its 160 GEMM stages
// before asking the memo, as Execute used to, measured 4 066.
func TestWarmExecuteAllocBudget(t *testing.T) {
	rt := testRuntime(t, Config{PlanAhead: 2})
	rt.noCompile = true
	g := nn.Llama2Decode(4, 256)
	ctx := context.Background()
	if _, err := rt.Execute(ctx, g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := rt.Execute(ctx, g); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 100
	if allocs > budget {
		t.Fatalf("interpreted warm Execute allocates %.0f times, budget %d", allocs, budget)
	}
}

// TestRecoveryRetryLowersOnFirstView: a transient fault on one stage, with a
// PE quarantined by that same failure, is healed by rung 1 — which re-runs
// that stage alone, on the shrunken device, with the batch lowered on the
// view the stage first ran under.
func TestRecoveryRetryLowersOnFirstView(t *testing.T) {
	rt, reg := healthyRuntime(t)
	type lowering struct{ pes, tasks int }
	var lowered []lowering
	rt.lowerFn = func(ops []stageOp, h hw.Hardware) []sim.Task {
		tasks := lowerStage(ops, h)
		lowered = append(lowered, lowering{h.NumPEs, len(tasks)})
		return tasks
	}
	var ranOn []int
	fs := &faultScript{decide: func(call int, v health.View, salt uint64) sim.Result {
		ranOn = append(ranOn, v.NumPEs-len(v.Quarantined))
		if call == 1 { // stage 1's first run: a task faults and PE 5 dies
			return sim.Result{FaultedTasks: 1, DeadPEs: []int{5}}
		}
		return sim.Result{}
	}}
	rt.SetSimulator(fs.simFn)

	g := chainGraph(3)
	rep, err := rt.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveredStages != 1 || rep.FaultedTasks != 0 || rt.Stats().RetriedStages != 1 {
		t.Fatalf("report %+v stats %+v, want one stage healed by an in-place retry", rep, rt.Stats())
	}
	if len(reg.View().Quarantined) != 1 {
		t.Fatalf("quarantined %v, want PE 5 only", reg.View().Quarantined)
	}
	full := rt.h.NumPEs
	// Calls: stage 0, stage 1 (dirty), stage 1 retried, stage 2.
	if want := []int{full, full, full - 1, full - 1}; !reflect.DeepEqual(ranOn, want) {
		t.Fatalf("stages ran on %v live PEs, want %v", ranOn, want)
	}
	if len(lowered) != 4 || lowered[2] != lowered[1] || lowered[1].pes != full {
		t.Fatalf("lowerings %+v: the retry must lower stage 1 again on the %d-PE view it first ran under", lowered, full)
	}
	if lowered[3].pes != full-1 {
		t.Fatalf("stage 2 lowered on %d PEs, want the degraded view's %d", lowered[3].pes, full-1)
	}
}
