package bench

import (
	"reflect"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
)

// One quick-suite run must hold every self-check and pass the gate against
// itself.
func TestServeSuiteQuickAndGate(t *testing.T) {
	if testing.Short() {
		t.Skip("serve suite replays full traces; skipped in -short")
	}
	rep, err := Run("serve", true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cases) != 2 {
		t.Fatalf("got %d cases", len(rep.Cases))
	}
	for _, f := range rep.SelfChecks {
		t.Errorf("self-check failed: %s", f)
	}
	for _, c := range rep.Cases {
		if c.Exact["completed"] == "0" {
			t.Fatalf("%s: nothing completed", c.Name)
		}
		if c.Exact["leaked_pages"] != "0" {
			t.Fatalf("%s: leaked %s pages", c.Name, c.Exact["leaked_pages"])
		}
		if c.Info["goodput_tps"] <= 0 {
			t.Fatalf("%s: zero goodput", c.Name)
		}
	}
	shared := rep.Cases[0]
	if shared.Exact["reused_tokens"] == "0" {
		t.Fatalf("%s: shared-prefix case reused no tokens", shared.Name)
	}
	if shared.Info["prefill_cycles_on"] >= shared.Info["prefill_cycles_off"] {
		t.Fatalf("%s: reuse did not cut prefill cycles: on=%g off=%g",
			shared.Name, shared.Info["prefill_cycles_on"], shared.Info["prefill_cycles_off"])
	}
	if regs := Compare(rep, rep); len(regs) != 0 {
		t.Fatalf("self-compare regressed: %v", regs)
	}
}

// Two runs of the same case must produce bit-identical exact fields — the
// property that makes the committed baseline machine-independent.
func TestServeSuiteDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("serve suite replays full traces; skipped in -short")
	}
	lib, err := core.SharedLibrary(hw.A100(), serveTune)
	if err != nil {
		t.Fatal(err)
	}
	c := serveCases(true)[0]
	a, _, err := measureServeCase(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := measureServeCase(c, lib)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Exact, b.Exact) {
		t.Fatalf("replay not deterministic:\n%v\n%v", a.Exact, b.Exact)
	}
}
