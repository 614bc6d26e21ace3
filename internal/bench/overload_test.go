package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/sched"
)

// dumpOverload writes one seed's overload decision log to $OVERLOAD_LOG_DIR
// (when set — CI uploads it as an artifact) and, on failure, into the test
// log.
func dumpOverload(t *testing.T, seed uint64, res Case, events []sched.Event) {
	t.Helper()
	data, err := json.MarshalIndent(events, "", "  ")
	if err != nil {
		t.Logf("marshaling seed %d events: %v", seed, err)
		return
	}
	if dir := os.Getenv("OVERLOAD_LOG_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("overload-events-seed%d.json", seed))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Logf("writing %s: %v", path, err)
			}
		}
	}
	if t.Failed() {
		t.Logf("seed %d result: %+v", seed, res)
		t.Logf("seed %d overload events:\n%s", seed, data)
	}
}

// TestOverloadSurgeGates replays the surge for the quick seed matrix and
// fails on any self-check: defended goodput >= 2x undefended, zero KV leaks,
// bitwise preempt->restore, deterministic replay. The full matrix runs in CI
// via `mikbench -suite overload` and the OVERLOAD_SEEDS matrix here.
func TestOverloadSurgeGates(t *testing.T) {
	if testing.Short() {
		t.Skip("overload surge suite in -short mode")
	}
	lib, err := core.SharedLibrary(hw.A100(), serveTune)
	if err != nil {
		t.Fatal(err)
	}
	// OVERLOAD_SEEDS (what the CI job's matrix sets) overrides the quick
	// default.
	seeds, err := ParseSeeds(os.Getenv("OVERLOAD_SEEDS"))
	if err != nil {
		t.Fatalf("OVERLOAD_SEEDS: %v", err)
	}
	if seeds == nil {
		seeds = overloadSeeds(true)
	}
	for _, seed := range seeds {
		res, events, failed, err := measureOverloadSeed(overloadSurge, seed, lib)
		if err != nil {
			t.Fatalf("overload seed %d: %v", seed, err)
		}
		for _, f := range failed {
			t.Errorf("self-check failed: %s", f)
		}
		t.Logf("seed %d: defended %.0f tok/s (%s/%s SLO-good, %s sheds, %s preemptions) vs undefended %.0f tok/s (%s SLO-good); ratio %.2fx",
			seed, res.Info["defended_goodput_tps"], res.Exact["defended_slo_good"], res.Exact["requests"],
			res.Exact["deadline_sheds"], res.Exact["preemptions"],
			res.Info["undefended_goodput_tps"], res.Exact["undefended_slo_good"], res.Info["goodput_ratio"])
		dumpOverload(t, seed, res, events)
	}
}
