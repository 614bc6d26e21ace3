package bench

import (
	"reflect"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
)

// TestColdGraphStreamDeterministic: the graph suite's cold-stream case folds
// the same cycles on every run and measures the interpreter, which allocates.
func TestColdGraphStreamDeterministic(t *testing.T) {
	lib, err := core.SharedLibrary(hw.A100(), serveTune)
	if err != nil {
		t.Fatal(err)
	}
	a, err := measureColdGraphStream("cold", lib)
	if err != nil {
		t.Fatal(err)
	}
	b, err := measureColdGraphStream("cold", lib)
	if err != nil {
		t.Fatal(err)
	}
	if a.Exact["cycles_fold"] == "" || !reflect.DeepEqual(a.Exact, b.Exact) {
		t.Fatalf("two runs disagree or fold nothing: %v, %v", a.Exact, b.Exact)
	}
	if a.NoGrow["allocs_per_op"] == 0 || a.NoGrow["bytes_per_op"] == 0 {
		t.Fatalf("a cold execution that allocates nothing was not interpreted: %v", a.NoGrow)
	}
}
