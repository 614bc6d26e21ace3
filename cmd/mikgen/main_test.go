package main

import (
	"os"
	"path/filepath"
	"testing"

	"mikpoly/internal/tune"
)

// TestWrittenLibraryLoads checks that the artifact mikgen writes is read by
// both library readers: tune.LoadFile (mikserve -library), which requires
// the integrity trailer, and tune.Load (mikexplain -lib), which stops at the
// end of the JSON value.
func TestWrittenLibraryLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lib.json")
	if err := run([]string{"-hw", "ascend910", "-ngen", "8", "-nsyn", "4", "-nmik", "4", "-npred", "64", "-o", path}); err != nil {
		t.Fatal(err)
	}
	sealed, err := tune.LoadFile(path)
	if err != nil {
		t.Fatalf("tune.LoadFile: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plain, err := tune.Load(f)
	if err != nil {
		t.Fatalf("tune.Load: %v", err)
	}
	if sealed.HW.Name != "ascend-910a" || plain.HW.Name != sealed.HW.Name {
		t.Fatalf("hardware %q / %q, want ascend-910a", sealed.HW.Name, plain.HW.Name)
	}
	if len(sealed.Kernels) != 4 || len(plain.Kernels) != len(sealed.Kernels) {
		t.Fatalf("kernels %d / %d, want 4", len(sealed.Kernels), len(plain.Kernels))
	}
}
