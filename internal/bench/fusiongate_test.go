package bench

import (
	"math"
	"strings"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/tune"
)

func fusionTestLibrary(t *testing.T) *tune.Library {
	t.Helper()
	lib, err := core.SharedLibrary(hw.A100(), tune.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestFusionGateFusedBeatsUnfused holds the adopting side of the fusion
// suite's adopt rule: a long, narrow chain of the suite fuses, saves traffic,
// beats the per-op path and passes every self-check.
func TestFusionGateFusedBeatsUnfused(t *testing.T) {
	lib := fusionTestLibrary(t)
	adopted := fusionCases(true)[0]
	run, err := runFusionCase(lib, adopted)
	if err != nil {
		t.Fatal(err)
	}
	if run.adopted != 1 || run.savedBytes <= 0 || !(run.fused < run.unfused) {
		t.Fatalf("%s: %+v, want the chain adopted, traffic saved and fewer cycles", adopted.Name, run)
	}
	if f := run.failures(adopted.Name); len(f) != 0 {
		t.Fatalf("%s: self-checks failed: %v", adopted.Name, f)
	}
}

// TestFusionGateRejectsUnprofitableChain holds the rejecting side: a wide,
// compute-bound chain — few rows over wide, deep stages, so fused strips
// serialize heavy work onto a handful of PEs — is rejected, leaves the unfused
// cycles bit for bit, and trips the suite's "chain was not fused" self-check.
func TestFusionGateRejectsUnprofitableChain(t *testing.T) {
	lib := fusionTestLibrary(t)
	wide := fusionCase{Name: "wide-compute-bound", M: 1024, Stages: []fusionStage{
		{N: 1024, K: 1024}, {N: 512, K: 1024}}}
	run, err := runFusionCase(lib, wide)
	if err != nil {
		t.Fatal(err)
	}
	if run.adopted != 0 || run.rejected != 1 {
		t.Fatalf("%s: %d chains adopted, %d rejected; want the one chain rejected", wide.Name, run.adopted, run.rejected)
	}
	if math.Float64bits(run.fused) != math.Float64bits(run.unfused) {
		t.Fatalf("%s: rejected chain changed cycles: %v vs %v", wide.Name, run.fused, run.unfused)
	}
	f := run.failures(wide.Name)
	if len(f) == 0 || !strings.Contains(f[0], "chain was not fused (1 rejected)") {
		t.Fatalf("%s: self-checks %q do not report the rejected chain", wide.Name, f)
	}
}
