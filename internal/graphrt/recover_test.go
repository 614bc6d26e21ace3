package graphrt

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// chainGraph builds an n-op GEMM chain (one op per stage). Shapes differ
// per stage so the stage-simulation memo never collapses two stages into one
// simulator call — scripted fault injection stays call-addressable.
func chainGraph(n int) nn.Graph {
	g := nn.Graph{Name: "chain"}
	for i := 0; i < n; i++ {
		g.Ops = append(g.Ops, nn.Op{
			Name: "op", Kind: nn.OpGemm,
			Gemm:  tensor.GemmShape{M: 96 + 16*i, N: 96, K: 64},
			Count: 1,
		})
	}
	return g
}

// faultScript is a deterministic simulator stub scripted per invocation:
// decide(call, v, salt) returns the faults to report; every call costs
// len(tasks) cycles so cycle accounting stays checkable.
type faultScript struct {
	mu     sync.Mutex
	calls  int
	decide func(call int, v health.View, salt uint64) sim.Result
}

func (f *faultScript) simFn(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result {
	f.mu.Lock()
	call := f.calls
	f.calls++
	f.mu.Unlock()
	res := f.decide(call, v, salt)
	res.Cycles = float64(len(tasks))
	res.NumTasks = len(tasks)
	return res
}

func healthyRuntime(t *testing.T) (*Runtime, *health.Registry) {
	t.Helper()
	reg := health.NewRegistry(hw.A100().NumPEs, health.Config{})
	rt := testRuntime(t, Config{Health: reg})
	return rt, reg
}

// TestRecoveryRetryInPlaceClearsTransient: a one-off transient fault on the
// first execution of a stage is healed by rung 1 (retry with a fresh salt)
// and never surfaces to the caller.
func TestRecoveryRetryInPlaceClearsTransient(t *testing.T) {
	rt, _ := healthyRuntime(t)
	fs := &faultScript{decide: func(call int, v health.View, salt uint64) sim.Result {
		if call == 0 {
			return sim.Result{FaultedTasks: 2}
		}
		return sim.Result{}
	}}
	rt.SetSimulator(fs.simFn)

	rep, err := rt.Execute(context.Background(), chainGraph(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultedTasks != 0 {
		t.Fatalf("transient fault surfaced: %d faulted tasks", rep.FaultedTasks)
	}
	if rep.RecoveredStages != 1 || rep.RecoveredFaults != 2 {
		t.Fatalf("recovered stages=%d faults=%d, want 1/2", rep.RecoveredStages, rep.RecoveredFaults)
	}
	st := rt.Stats()
	if st.RetriedStages != 1 || st.MigratedStages != 0 || st.ReplannedStages != 0 {
		t.Fatalf("ladder stats %+v, want exactly one in-place retry", st)
	}
}

// TestRecoveryMigratesOntoDegradedView: a PE death persists across the
// in-place retry, so rung 2 regenerates the stage's tasks on the survivor
// view (the dead PE quarantined by the registry) and succeeds. The healed
// stage must run on NumPEs-1 hardware.
func TestRecoveryMigratesOntoDegradedView(t *testing.T) {
	rt, reg := healthyRuntime(t)
	base := rt.h.NumPEs
	var migratedPEs int
	var mu sync.Mutex
	fs := &faultScript{decide: func(call int, v health.View, salt uint64) sim.Result {
		switch call {
		case 0: // initial run: PE 5 dies mid-stage
			return sim.Result{FaultedTasks: 1, DeadPEs: []int{5}}
		case 1: // rung 1 retry: still dirty (the death already quarantined
			// PE 5, but script the retry dirty to force rung 2)
			return sim.Result{FaultedTasks: 1}
		default:
			mu.Lock()
			migratedPEs = v.NumPEs - len(v.Quarantined)
			mu.Unlock()
			return sim.Result{}
		}
	}}
	rt.SetSimulator(fs.simFn)

	rep, err := rt.Execute(context.Background(), chainGraph(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultedTasks != 0 || rep.RecoveredStages != 1 {
		t.Fatalf("report %+v, want clean with one recovered stage", rep)
	}
	if st := rt.Stats(); st.MigratedStages != 1 {
		t.Fatalf("ladder stats %+v, want one migrated stage", st)
	}
	if got := reg.View().Quarantined; len(got) != 1 || got[0] != 5 {
		t.Fatalf("quarantined %v, want [5]", got)
	}
	if migratedPEs != base-1 {
		t.Fatalf("migrated run saw %d live PEs, want %d", migratedPEs, base-1)
	}
}

// TestRecoveryReplansOnDegradedView: rungs 1 and 2 stay dirty, so rung 3
// replans the stage's ops against H' — the replanned program must target the
// shrunken hardware, and the replan is visible in the report's plan counters.
func TestRecoveryReplansOnDegradedView(t *testing.T) {
	rt, reg := healthyRuntime(t)
	base := rt.h.NumPEs
	fs := &faultScript{decide: func(call int, v health.View, salt uint64) sim.Result {
		if call < 3 { // initial + rung1 + rung2 all dirty
			return sim.Result{FaultedTasks: 1, DeadPEs: []int{7}}
		}
		return sim.Result{}
	}}
	rt.SetSimulator(fs.simFn)

	g := chainGraph(1)
	rep, err := rt.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultedTasks != 0 || rep.RecoveredStages != 1 {
		t.Fatalf("report %+v, want clean with one recovered stage", rep)
	}
	if st := rt.Stats(); st.ReplannedStages != 1 {
		t.Fatalf("ladder stats %+v, want one replanned stage", st)
	}
	// 1 plan for the initial execution + 1 for the rung-3 replan.
	if rep.Plans != 2 {
		t.Fatalf("plans=%d, want 2 (initial + recovery replan)", rep.Plans)
	}
	// The degraded program must be cached under the degraded fingerprint,
	// isolated from the healthy entry.
	fp := reg.View().Fingerprint()
	if fp == "" {
		t.Fatal("registry still pristine after repeated PE death")
	}
	c := rt.comp
	if c.Lookup(g.Ops[0].Gemm) == nil {
		t.Fatalf("replanned program not cached under fp %q", fp)
	}
	prog, err := c.PlanContext(context.Background(), g.Ops[0].Gemm)
	if err != nil {
		t.Fatal(err)
	}
	if prog.HW.NumPEs >= base {
		t.Fatalf("degraded plan targets %d PEs, want < %d", prog.HW.NumPEs, base)
	}
}

// TestRecoveryExhaustionReturnsTypedError: a stage that stays dirty through
// the whole ladder fails with a StageError wrapping ErrStageUnrecoverable —
// never a panic, never a silent wrong answer.
func TestRecoveryExhaustionReturnsTypedError(t *testing.T) {
	rt, _ := healthyRuntime(t)
	fs := &faultScript{decide: func(call int, v health.View, salt uint64) sim.Result {
		return sim.Result{FaultedTasks: 3, DeadPEs: []int{2}}
	}}
	rt.SetSimulator(fs.simFn)

	_, err := rt.Execute(context.Background(), chainGraph(2))
	if err == nil {
		t.Fatal("permanently dirty stage must fail")
	}
	if !errors.Is(err, ErrStageUnrecoverable) {
		t.Fatalf("error %v does not wrap ErrStageUnrecoverable", err)
	}
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("error %T is not a *StageError", err)
	}
	if se.Attempts != maxStageAttempts {
		t.Fatalf("attempts=%d, want maxStageAttempts %d", se.Attempts, maxStageAttempts)
	}
	if len(se.Quarantined) == 0 {
		t.Fatal("StageError carries no quarantine forensics")
	}
	if !strings.Contains(se.Error(), "stage 0") {
		t.Fatalf("error text %q names no stage", se.Error())
	}
	if st := rt.Stats(); st.UnrecoverableStages != 1 {
		t.Fatalf("ladder stats %+v, want one unrecoverable stage", st)
	}
}

// TestRecoveryFaultDuringFinalStage: edge case — the persistent fault lands
// on the last stage of the graph, after every other stage completed. The
// final stage must be recovered in isolation (earlier stages are not
// re-executed) and the report must stay internally consistent.
func TestRecoveryFaultDuringFinalStage(t *testing.T) {
	rt, _ := healthyRuntime(t)
	const nOps = 4
	var faultedCall int
	fs := &faultScript{}
	fs.decide = func(call int, v health.View, salt uint64) sim.Result {
		if call == nOps-1 { // the final stage's first execution
			faultedCall = call
			return sim.Result{FaultedTasks: 1, DeadPEs: []int{3}}
		}
		return sim.Result{}
	}
	rt.SetSimulator(fs.simFn)

	rep, err := rt.Execute(context.Background(), chainGraph(nOps))
	if err != nil {
		t.Fatal(err)
	}
	if rep.FaultedTasks != 0 || rep.RecoveredStages != 1 {
		t.Fatalf("report %+v, want clean with one recovered stage", rep)
	}
	// nOps stage executions + exactly 1 recovery re-execution: recovery
	// re-ran only the final stage, not the whole graph.
	fs.mu.Lock()
	calls := fs.calls
	fs.mu.Unlock()
	if calls != nOps+1 {
		t.Fatalf("simulator ran %d times, want %d (no earlier stage re-executed)", calls, nOps+1)
	}
	if faultedCall != nOps-1 {
		t.Fatalf("fault injected at call %d, script broken", faultedCall)
	}
}

// TestRecoveryWithMemoryPlannerReuse: edge case — the faulted stage's output
// buffer lives in a memory region the planner later reuses for another
// tensor. Memory planning is a pre-execution pass over the graph, so stage
// recovery must neither disturb the plan nor corrupt accounting: the healed
// run's memory report must be identical to a fault-free run of the same
// graph.
func TestRecoveryWithMemoryPlannerReuse(t *testing.T) {
	// A chain long enough that early outputs die and their regions are
	// reused by later buffers (liveness-based first-fit).
	g := chainGraph(6)

	clean := func() Report {
		rt, _ := healthyRuntime(t)
		fs := &faultScript{decide: func(int, health.View, uint64) sim.Result { return sim.Result{} }}
		rt.SetSimulator(fs.simFn)
		rep, err := rt.Execute(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}()

	rt, _ := healthyRuntime(t)
	fs := &faultScript{decide: func(call int, v health.View, salt uint64) sim.Result {
		if call == 1 { // stage 1: its output region is reused downstream
			return sim.Result{FaultedTasks: 1, DeadPEs: []int{9}}
		}
		return sim.Result{}
	}}
	rt.SetSimulator(fs.simFn)
	rep, err := rt.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveredStages != 1 || rep.FaultedTasks != 0 {
		t.Fatalf("report %+v, want one recovered stage and no surfaced faults", rep)
	}
	if rep.Mem != clean.Mem {
		t.Fatalf("memory plan diverged under recovery:\n  healed %+v\n  clean  %+v", rep.Mem, clean.Mem)
	}
	if rep.Mem.PeakBytes >= rep.Mem.WorkingSetBytes && rep.Mem.Buffers > 1 {
		// Region reuse is what this edge case is about: peak < working
		// set proves a freed region was actually recycled.
		t.Logf("note: no reuse detected (peak=%d ws=%d)", rep.Mem.PeakBytes, rep.Mem.WorkingSetBytes)
	}
}

// TestRecoveryWithConcurrentDecodeSteps: edge case — persistent faults
// strike while decode step graphs at mixed KV lengths are in flight
// concurrently. Every step must complete cleanly (the ladder heals the
// faulted step graphs); nothing may deadlock or panic.
func TestRecoveryWithConcurrentDecodeSteps(t *testing.T) {
	rt, reg := healthyRuntime(t)
	var mu sync.Mutex
	faulted := 0
	fs := &faultScript{}
	fs.decide = func(call int, v health.View, salt uint64) sim.Result {
		mu.Lock()
		defer mu.Unlock()
		// The first execution under the pristine view faults with a dying
		// PE (index 4 in base numbering — faulting only while pristine
		// keeps survivor renumbering out of the script); recovery attempts
		// (salt high bits set) and later steps run clean.
		if faulted < 1 && salt>>32 == 0 && len(v.Quarantined) == 0 {
			faulted++
			return sim.Result{FaultedTasks: 1, DeadPEs: []int{4}}
		}
		return sim.Result{}
	}
	rt.SetSimulator(fs.simFn)

	// Two sequences, far apart in KV length, each decoding three tokens as
	// three step graphs; the sequences run concurrently.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, kv := range []int{60, 700} {
		wg.Add(1)
		go func(i, kv int) {
			defer wg.Done()
			for step := 0; step < 3; step++ {
				rep, err := rt.Execute(context.Background(), nn.Llama2Decode(1, kv+step))
				if err == nil && rep.FaultedTasks != 0 {
					err = fmt.Errorf("step %d saw %d unhealed faults", step, rep.FaultedTasks)
				}
				if err != nil {
					errs[i] = err
					return
				}
			}
		}(i, kv)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sequence %d failed: %v", i, err)
		}
	}
	if st := rt.Stats(); st.RetriedStages+st.MigratedStages+st.ReplannedStages == 0 {
		t.Fatalf("no recovery recorded despite injected faults: %+v", st)
	}
	if got := reg.View().Quarantined; len(got) != 1 || got[0] != 4 {
		t.Fatalf("quarantined %v, want [4]", got)
	}
}

// TestRecoveryLadderBeatsBlindRetry runs one persistent-fault schedule (PE 5
// dies at cycle 1 of every run) two ways over two distilbert requests: on a
// runtime without a health registry, behind a whole-graph blind retry loop
// that reruns it under a fresh fault draw; and with the recovery ladder,
// which quarantines the PE and heals single stages. The ladder must answer both requests cleanly in fewer device
// cycles, because it re-executes stages instead of entire graphs.
func TestRecoveryLadderBeatsBlindRetry(t *testing.T) {
	const maxRetries = 3
	faults := sim.Faults{Seed: 33, PEDeathCycle: map[int]float64{5: 1}}
	var redraw uint64 // the blind loop's attempt; zero under the ladder
	simulate := func(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result {
		f := v.RemapFaults(faults)
		f.Salt += salt + redraw
		res, err := sim.RunWithFaults(h, tasks, f)
		if err != nil {
			t.Error(err)
		}
		return res
	}
	g, err := nn.BuildModel("distilbert", nn.ModelDims{Seq: 32})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	blind := testRuntime(t, Config{})
	blind.SetSimulator(simulate)
	for req := 0; req < 2; req++ {
		for redraw = 0; ; redraw++ {
			// The stage memo is keyed without the redraw, so it must not
			// answer an attempt with an earlier attempt's faults.
			blind.simCache = core.NewLRU[stageKey, *sim.Result](simCacheCap)
			rep, err := blind.Execute(ctx, g)
			if err != nil {
				t.Fatal(err)
			}
			if rep.FaultedTasks == 0 || redraw == maxRetries {
				break
			}
		}
	}
	redraw = 0

	healed, _ := healthyRuntime(t)
	healed.SetSimulator(simulate)
	for req := 0; req < 2; req++ {
		rep, err := healed.Execute(ctx, g)
		if err != nil {
			t.Fatalf("request %d: %v", req, err)
		}
		if rep.FaultedTasks != 0 {
			t.Fatalf("request %d: ladder surfaced %d faulted tasks", req, rep.FaultedTasks)
		}
	}

	healCycles, blindCycles := healed.Stats().Cycles, blind.Stats().Cycles
	if healCycles >= blindCycles {
		t.Fatalf("recovery ladder spent %v device cycles, blind retry %v: healing stages should be cheaper",
			healCycles, blindCycles)
	}
	t.Logf("device cycles: ladder %v vs blind retry %v (%.1fx)", healCycles, blindCycles, blindCycles/healCycles)
}
