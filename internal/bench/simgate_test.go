package bench

import (
	"reflect"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
)

// TestSimStreamCaseDeterministic: the sim suite's case folds the same result
// bits on every run, and a simulation holds its allocation budget: the static
// allocator's tables and the event loop's per-PE state, nothing per task.
func TestSimStreamCaseDeterministic(t *testing.T) {
	lib, err := core.SharedLibrary(hw.Ascend910(), serveTune)
	if err != nil {
		t.Fatal(err)
	}
	a, err := measureSimStream("a910-sim", lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureSimStream("a910-sim", lib)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Exact, b.Exact) || a.Exact["result_fold"] == "" {
		t.Fatalf("exact fields differ across runs or are missing:\n%v\n%v", a.Exact, b.Exact)
	}
	if a.NoGrow["allocs_per_op"] > 16 {
		t.Fatalf("%d allocs per simulation", a.NoGrow["allocs_per_op"])
	}
}
