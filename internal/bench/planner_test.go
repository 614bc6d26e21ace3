package bench

import (
	"reflect"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
)

// measureTestCases measures a two-case slice of the pinned suite — one GPU,
// one NPU, covering both pattern sets — against the tiny offline library the
// other package tests share through core.SharedLibrary.
func measureTestCases(t *testing.T) *Report {
	t.Helper()
	rep := &Report{Schema: ReportSchema, SelfChecks: []string{}}
	for _, c := range []plannerCase{
		{Name: "a100-bert-qkv-s128", HW: hw.A100(), M: 128, N: 768, K: 768},
		{Name: "a910-npu-bert-s128", HW: hw.Ascend910(), M: 128, N: 768, K: 768},
	} {
		lib, err := core.SharedLibrary(c.HW, serveTune)
		if err != nil {
			t.Fatal(err)
		}
		res, err := measurePlannerCase(c, lib)
		if err != nil {
			t.Fatal(err)
		}
		res.Suite = "planner"
		rep.Cases = append(rep.Cases, res)
	}
	return rep
}

// TestPlannerSuiteDeterministicAndSelfConsistent: two independent runs of the
// same cases must choose bitwise-identical programs (same cycle-cost bits,
// same program fingerprints, same candidate counts — the whole exact map),
// stay on the steady-state allocation budget, and pass the gate against each
// other.
func TestPlannerSuiteDeterministicAndSelfConsistent(t *testing.T) {
	a, b := measureTestCases(t), measureTestCases(t)
	for i := range a.Cases {
		ca, cb := a.Cases[i], b.Cases[i]
		if !reflect.DeepEqual(ca.Exact, cb.Exact) {
			t.Fatalf("%s: exact fields differ across runs:\n%v\n%v", ca.Name, ca.Exact, cb.Exact)
		}
		for _, k := range []string{"program", "pattern", "regions", "candidates", "cycle_cost_bits", "sim_cycles_bits"} {
			if ca.Exact[k] == "" {
				t.Fatalf("%s: exact field %s missing", ca.Name, k)
			}
		}
		if ca.NoGrow["allocs_per_op"] > 8 {
			t.Fatalf("%s: %d allocs/op on the steady-state hot path", ca.Name, ca.NoGrow["allocs_per_op"])
		}
		if ca.Info["ns_per_op"] <= 0 {
			t.Fatalf("%s: ns/op not reported", ca.Name)
		}
	}
	if regs := Compare(a, a); len(regs) != 0 {
		t.Fatalf("self-comparison reported regressions: %v", regs)
	}
}

// TestColdStreamCaseDeterministic: the cold-stream case folds the same
// decisions on every run and holds the per-plan allocation budget on shapes
// the planner has never seen.
func TestColdStreamCaseDeterministic(t *testing.T) {
	lib, err := core.SharedLibrary(hw.Ascend910(), serveTune)
	if err != nil {
		t.Fatal(err)
	}
	a, err := measureColdStream("a910-cold", lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureColdStream("a910-cold", lib)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Exact, b.Exact) || a.Exact["programs_fold"] == "" || a.Exact["candidates"] == "" {
		t.Fatalf("exact fields differ across runs or are missing:\n%v\n%v", a.Exact, b.Exact)
	}
	if a.NoGrow["allocs_per_op"] > 8 {
		t.Fatalf("%d allocs per cold plan", a.NoGrow["allocs_per_op"])
	}
}
