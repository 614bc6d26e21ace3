package core

import (
	"context"
	"testing"
	"time"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// quarantineOne drives the registry until one PE is quarantined and returns
// the degraded fingerprint.
func quarantineOne(t *testing.T, reg *health.Registry, pe int) string {
	t.Helper()
	r := sim.Result{FaultedTasks: 1, DeadPEs: []int{pe}}
	reg.ObserveResult(reg.View(), r)
	fp := reg.View().Fingerprint()
	if fp == "" {
		t.Fatal("quarantine did not degrade the view")
	}
	return fp
}

func TestHealthKeyedCacheIsolation(t *testing.T) {
	lib, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := health.NewRegistry(lib.HW.NumPEs, health.Config{})
	c := NewCompilerFromLibrary(lib)
	c.SetHealth(reg)

	shape := tensor.GemmShape{M: 300, N: 300, K: 300}
	healthyProg, err := c.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Cached(shape, "") {
		t.Fatal("healthy plan not cached under the empty fingerprint")
	}

	fp := quarantineOne(t, reg, 3)
	degradedProg, err := c.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Cached(shape, fp) {
		t.Fatalf("degraded plan not cached under %q", fp)
	}
	if !c.Cached(shape, "") {
		t.Fatal("degraded planning evicted the healthy entry — cache poisoned")
	}
	// The degraded program targets one fewer PE; the healthy program is
	// untouched and still served once the view recovers.
	if got := degradedProg.HW.NumPEs; got != lib.HW.NumPEs-1 {
		t.Fatalf("degraded program HW has %d PEs, want %d", got, lib.HW.NumPEs-1)
	}
	if healthyProg.HW.NumPEs != lib.HW.NumPEs {
		t.Fatalf("healthy program mutated: %d PEs", healthyProg.HW.NumPEs)
	}

	c.SetHealth(nil) // the device recovers: plans target the pristine H again
	before, _ := c.PlanStats()
	back, err := c.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if after, _ := c.PlanStats(); after != before {
		t.Fatal("recovered view re-planned instead of hitting the healthy entry")
	}
	if back != healthyProg {
		t.Fatal("recovered view served a different program than the healthy plan")
	}

	if h := c.Health(); h.DegradedPlans == 0 {
		t.Fatalf("DegradedPlans = %d, want > 0", h.DegradedPlans)
	}
}

func TestHealthViewChangeTriggersBackgroundReplan(t *testing.T) {
	lib, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := health.NewRegistry(lib.HW.NumPEs, health.Config{})
	c := NewCompilerFromLibrary(lib)
	c.SetHealth(reg)

	shapes := []tensor.GemmShape{
		{M: 128, N: 128, K: 128},
		{M: 256, N: 64, K: 96},
	}
	for _, s := range shapes {
		if _, err := c.Plan(s); err != nil {
			t.Fatal(err)
		}
	}

	fp := quarantineOne(t, reg, 0)
	// Any plan call notices the generation change and replans the hot set
	// in the background.
	if _, err := c.Plan(tensor.GemmShape{M: 48, N: 48, K: 48}); err != nil {
		t.Fatal(err)
	}
	c.replanning.Wait()
	for _, s := range shapes {
		if !c.Cached(s, fp) {
			t.Fatalf("hot shape %v not replanned under %q", s, fp)
		}
	}
	if h := c.Health(); h.Replans == 0 {
		t.Fatalf("Replans = %d, want > 0", h.Replans)
	}
}

func TestPlanOrFallbackTargetsDegradedView(t *testing.T) {
	lib, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := health.NewRegistry(lib.HW.NumPEs, health.Config{})
	c := NewCompilerFromLibrary(lib)
	c.SetHealth(reg)
	quarantineOne(t, reg, 7)

	// Expired context: the fallback must price the degraded hardware.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	fb, degraded, err := c.PlanOrFallback(expired, tensor.GemmShape{M: 37, N: 29, K: 31})
	if err != nil || !degraded {
		t.Fatalf("degraded=%v err=%v", degraded, err)
	}
	if fb.HW.NumPEs != lib.HW.NumPEs-1 {
		t.Fatalf("fallback HW has %d PEs, want %d", fb.HW.NumPEs, lib.HW.NumPEs-1)
	}
}

// TestPlanningSurvivesMaximallyDegradedView quarantines every PE the
// registry will give up (all but one) and proves the planner still answers:
// no panic, a legal program targeting the 1-PE H', and the fallback path
// intact under an expired deadline.
func TestPlanningSurvivesMaximallyDegradedView(t *testing.T) {
	lib, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := health.NewRegistry(lib.HW.NumPEs, health.Config{})
	c := NewCompilerFromLibrary(lib)
	c.SetHealth(reg)

	// Kill view-PE 0 repeatedly: each observation quarantines the next
	// surviving base PE until only one remains (the registry refuses the
	// last), plus a few extra rounds that must be no-ops.
	for i := 0; i < lib.HW.NumPEs+2; i++ {
		reg.ObserveResult(reg.View(), sim.Result{FaultedTasks: 1, DeadPEs: []int{0}})
	}
	if q := len(reg.View().Quarantined); q != lib.HW.NumPEs-1 {
		t.Fatalf("quarantined %d PEs, want %d", q, lib.HW.NumPEs-1)
	}

	shape := tensor.GemmShape{M: 192, N: 160, K: 96}
	prog, err := c.Plan(shape)
	if err != nil {
		t.Fatalf("planning on a 1-PE view: %v", err)
	}
	if prog.HW.NumPEs != 1 {
		t.Fatalf("degraded program targets %d PEs, want 1", prog.HW.NumPEs)
	}

	// The deadline-expired path must degrade to the fallback program, not
	// panic, even on the maximally degraded view.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	fb, degraded, err := c.PlanOrFallback(ctx, tensor.GemmShape{M: 37, N: 29, K: 131})
	if err != nil || fb == nil {
		t.Fatalf("PlanOrFallback on 1-PE view: prog=%v err=%v", fb, err)
	}
	if !degraded {
		t.Fatal("expired deadline did not take the fallback path")
	}
}
