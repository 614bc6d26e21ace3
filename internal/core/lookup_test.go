package core

import (
	"context"
	"testing"

	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/tensor"
)

// TestLookupIsTheHitPath: Lookup answers exactly what PlanOrFallback's hit
// path would — same program, a counted hit, a recency bump, an observation
// for the traffic tracker — and an absent entry changes nothing at all.
func TestLookupIsTheHitPath(t *testing.T) {
	lib, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCompilerFromLibrary(lib, WithCacheCapacity(2))
	a := tensor.GemmShape{M: 96, N: 160, K: 224}
	b := tensor.GemmShape{M: 128, N: 64, K: 512}
	d := tensor.GemmShape{M: 200, N: 72, K: 96}

	if c.Lookup(a) != nil || c.Lookup(tensor.GemmShape{}) != nil {
		t.Fatal("Lookup answered from an empty cache")
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 0 || st.Size != 0 {
		t.Fatalf("absent lookups moved the counters: %+v", st)
	}
	if n, _ := c.PlanStats(); n != 0 || len(c.HotShapes(8)) != 0 {
		t.Fatalf("absent lookups planned (%d) or fed the tracker (%v)", n, c.HotShapes(8))
	}

	progA, _, err := c.PlanOrFallback(context.Background(), a)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.PlanOrFallback(context.Background(), b); err != nil {
		t.Fatal(err)
	}
	if st := c.CacheStats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("two cold plans counted %+v, want 0 hits and one miss each", st)
	}

	// a is the older entry; a Lookup hit must make it the newer one, so
	// planning a third shape into the two-entry cache evicts b, not a.
	if got := c.Lookup(a); got != progA {
		t.Fatalf("Lookup returned %p, PlanOrFallback cached %p", got, progA)
	}
	if st := c.CacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("after one Lookup hit: %+v", st)
	}
	if _, _, err := c.PlanOrFallback(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if !c.Cached(a, "") || c.Cached(b, "") {
		t.Fatal("Lookup hit did not refresh recency: the wrong entry was evicted")
	}
	if hot := c.HotShapes(1); len(hot) != 1 || hot[0] != a {
		t.Fatalf("hottest shape %v, want %v (planned once, looked up once)", hot, a)
	}
	if got, degraded, _ := c.PlanOrFallback(context.Background(), a); got != progA || degraded {
		t.Fatal("PlanOrFallback and Lookup disagree on a cached shape")
	}
	if n, _ := c.PlanStats(); n != 3 {
		t.Fatalf("%d online plans, want 3: a hit must never plan", n)
	}
}

// TestLookupRespectsHealthView: under a degraded fingerprint Lookup never
// returns the healthy-mode program, and it comes back verbatim on recovery.
func TestLookupRespectsHealthView(t *testing.T) {
	lib, err := SharedLibrary(hw.A100(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	reg := health.NewRegistry(lib.HW.NumPEs, health.Config{})
	c := NewCompilerFromLibrary(lib)
	c.SetHealth(reg)
	shape := tensor.GemmShape{M: 300, N: 300, K: 300}
	healthy, err := c.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lookup(shape) != healthy {
		t.Fatal("healthy view: Lookup missed the cached program")
	}

	quarantineOne(t, reg, 3)
	// The view change replans hot shapes in the background; whatever
	// Lookup sees now is either nothing or that degraded-mode plan.
	if got := c.Lookup(shape); got == healthy {
		t.Fatal("degraded view was served the healthy-mode program")
	} else if got != nil && got.HW.NumPEs != lib.HW.NumPEs-1 {
		t.Fatalf("degraded lookup returned a program for %d PEs", got.HW.NumPEs)
	}
	degraded, err := c.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Lookup(shape); got != degraded || got.HW.NumPEs != lib.HW.NumPEs-1 {
		t.Fatalf("degraded view: Lookup returned %p, want the degraded plan %p", got, degraded)
	}

	c.SetHealth(nil) // the device recovers: plans target the pristine H again
	if c.Lookup(shape) != healthy {
		t.Fatal("recovered view did not get the healthy program back")
	}
}
