package graphrt

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// testRuntime builds a runtime over a fresh compiler (cold plan cache) that
// shares the test-sized micro-kernel library across tests.
func testRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	return runtimeOn(t, hw.A100(), cfg)
}

// runtimeOn is testRuntime for another device.
func runtimeOn(t *testing.T, h hw.Hardware, cfg Config) *Runtime {
	t.Helper()
	lib, err := core.SharedLibrary(h, tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256})
	if err != nil {
		t.Fatal(err)
	}
	return New(core.NewCompilerFromLibrary(lib), cfg)
}

// fastRuntime swaps the simulator for a deterministic stub so tests that
// exercise scheduling and batching run instantly.
func fastRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt := testRuntime(t, cfg)
	rt.simFn = func(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result {
		return sim.Result{Cycles: float64(len(tasks)), NumTasks: len(tasks)}
	}
	return rt
}

func checkWallInvariants(t *testing.T, rep Report) {
	t.Helper()
	if rep.PlanWall > rep.StallWall+rep.HiddenWall {
		t.Errorf("PlanWall %v > StallWall %v + HiddenWall %v", rep.PlanWall, rep.StallWall, rep.HiddenWall)
	}
	if rep.HiddenWall > rep.PlanWall {
		t.Errorf("HiddenWall %v > PlanWall %v", rep.HiddenWall, rep.PlanWall)
	}
	if rep.Stalls > rep.Plans {
		t.Errorf("Stalls %d > Plans %d", rep.Stalls, rep.Plans)
	}
}

func TestExecuteBasic(t *testing.T) {
	rt := testRuntime(t, Config{})
	g := nn.Transformer(nn.DistilBERTConfig, 32, 1)
	rep, err := rt.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ops != len(g.Ops) || rep.Stages != len(g.Ops) {
		t.Fatalf("ops=%d stages=%d, want both %d (chain graph)", rep.Ops, rep.Stages, len(g.Ops))
	}
	gemms := 0
	for _, op := range g.Ops {
		if op.Kind != nn.OpOther {
			gemms++
		}
	}
	if rep.Plans != gemms {
		t.Fatalf("plans=%d, want one per GEMM op (%d)", rep.Plans, gemms)
	}
	if rep.Stalls != rep.Plans {
		t.Fatalf("sequential mode: stalls=%d, want %d (every plan on the critical path)", rep.Stalls, rep.Plans)
	}
	if rep.HiddenWall != 0 {
		t.Fatalf("sequential mode hid %v of planning", rep.HiddenWall)
	}
	if rep.GemmCycles <= 0 || rep.OtherCycles <= 0 {
		t.Fatalf("implausible cycle split: gemm=%g other=%g", rep.GemmCycles, rep.OtherCycles)
	}
	if rep.Cycles != rep.GemmCycles+rep.OtherCycles+rep.SpillCycles {
		t.Fatalf("cycles %g != gemm %g + other %g + spill %g", rep.Cycles, rep.GemmCycles, rep.OtherCycles, rep.SpillCycles)
	}
	if rep.Mem.Buffers != gemms {
		t.Fatalf("mem planned %d buffers, want %d", rep.Mem.Buffers, gemms)
	}
	if rep.Degraded != 0 {
		t.Fatalf("healthy planning degraded %d ops", rep.Degraded)
	}
	checkWallInvariants(t, rep)

	st := rt.Stats()
	if st.Graphs != 1 || st.Plans != int64(rep.Plans) || st.Cycles != math.Trunc(rep.Cycles) {
		t.Fatalf("stats not aggregated: %+v", st)
	}
}

// TestPlanAheadMatchesSequential is acceptance criterion (a): the plan-ahead
// pipeline changes when programs are produced, never which programs — so an
// end-to-end Llama2 decode graph costs identical device cycles in both modes.
func TestPlanAheadMatchesSequential(t *testing.T) {
	g := nn.Llama2Decode(2, 300)
	seq, err := testRuntime(t, Config{}).Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ahead, err := testRuntime(t, Config{PlanAhead: 4}).Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Cycles != ahead.Cycles {
		t.Fatalf("cycles diverge: sequential %g, plan-ahead %g", seq.Cycles, ahead.Cycles)
	}
	if seq.GemmCycles != ahead.GemmCycles || seq.OtherCycles != ahead.OtherCycles {
		t.Fatalf("cycle split diverges: seq(%g,%g) ahead(%g,%g)",
			seq.GemmCycles, seq.OtherCycles, ahead.GemmCycles, ahead.OtherCycles)
	}
	if seq.Plans != ahead.Plans {
		t.Fatalf("plan count diverges: %d vs %d", seq.Plans, ahead.Plans)
	}
	checkWallInvariants(t, seq)
	checkWallInvariants(t, ahead)
}

// TestPlanAheadHidesPlanning is acceptance criterion (b): with a cold plan
// cache and planning cost made visible (a deterministic per-distinct-shape
// delay standing in for real polymerization search), the pipeline hides more
// than half of the online planning wall time, while sequential execution
// hides none.
func TestPlanAheadHidesPlanning(t *testing.T) {
	const coldPlanDelay = 30 * time.Millisecond
	slowPlans := func(rt *Runtime) {
		orig := rt.planFn
		var mu sync.Mutex
		seen := make(map[tensor.GemmShape]bool)
		rt.planFn = func(ctx context.Context, shape tensor.GemmShape) (*poly.Program, bool, error) {
			mu.Lock()
			first := !seen[shape]
			seen[shape] = true
			mu.Unlock()
			if first {
				time.Sleep(coldPlanDelay)
			}
			return orig(ctx, shape)
		}
	}
	g := nn.Llama2Decode(1, 200) // 4 distinct GEMM shapes, all cold

	seqRT := testRuntime(t, Config{})
	slowPlans(seqRT)
	seq, err := seqRT.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if seq.HiddenWall != 0 || seq.HiddenFraction() != 0 {
		t.Fatalf("sequential mode claims hidden planning: %v", seq.HiddenWall)
	}
	if seq.PlanWall < 4*coldPlanDelay {
		t.Fatalf("cold planning wall %v, want >= %v", seq.PlanWall, 4*coldPlanDelay)
	}

	aheadRT := testRuntime(t, Config{PlanAhead: 4})
	slowPlans(aheadRT)
	ahead, err := aheadRT.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ahead.Cycles != seq.Cycles {
		t.Fatalf("cycles diverge under slow planning: %g vs %g", ahead.Cycles, seq.Cycles)
	}
	if frac := ahead.HiddenFraction(); frac <= 0.5 {
		t.Fatalf("plan-ahead hid %.0f%% of planning (plan=%v stall=%v hidden=%v), want > 50%%",
			frac*100, ahead.PlanWall, ahead.StallWall, ahead.HiddenWall)
	}
	if ahead.Stalls < 1 {
		t.Fatal("the first cold plan must register as a stall")
	}
	checkWallInvariants(t, ahead)
}

func TestPlanTimeoutDegrades(t *testing.T) {
	rt := fastRuntime(t, Config{PlanAhead: 2, PlanTimeout: -1})
	g := nn.Transformer(nn.DistilBERTConfig, 16, 1)
	rep, err := rt.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded != rep.Plans {
		t.Fatalf("expired deadline degraded %d of %d plans, want all", rep.Degraded, rep.Plans)
	}
	if rep.Cycles <= 0 {
		t.Fatal("degraded execution still must report cycles")
	}
}

func TestExecuteRejectsBadGraphs(t *testing.T) {
	rt := fastRuntime(t, Config{})
	if _, err := rt.Execute(context.Background(), nn.Graph{Name: "empty"}); err == nil {
		t.Fatal("empty graph accepted")
	}
	cyc := nn.Graph{Name: "cyclic", Ops: []nn.Op{
		{Name: "a", Kind: nn.OpGemm, Gemm: tensor.GemmShape{M: 8, N: 8, K: 8}, Count: 1, Inputs: []int{1}},
		{Name: "b", Kind: nn.OpGemm, Gemm: tensor.GemmShape{M: 8, N: 8, K: 8}, Count: 1, Inputs: []int{0}},
	}}
	if _, err := rt.Execute(context.Background(), cyc); err == nil {
		t.Fatal("cyclic graph accepted")
	}
}

func TestExecuteHonorsCancellation(t *testing.T) {
	rt := fastRuntime(t, Config{PlanAhead: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := rt.Execute(ctx, nn.Llama2Decode(1, 64)); err == nil {
		t.Fatal("cancelled context must abort execution")
	}
}

// distinctShapes counts the distinct GEMM shapes of g's ops.
func distinctShapes(g nn.Graph) int {
	shapes := make(map[tensor.GemmShape]bool)
	for _, op := range g.Ops {
		if op.Kind != nn.OpOther {
			shapes[op.Gemm] = true
		}
	}
	return len(shapes)
}
