package core

import (
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

func otherTestLib(t *testing.T) *tune.Library {
	t.Helper()
	opts := testOpts()
	opts.NMik = 5
	lib, err := SharedLibrary(hw.A100(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestCacheKeyIncludesLibraryHash is the regression test for the stale-program
// bug: after SetLibrary swaps in a retuned library, a cached program planned
// from the old kernels must never be served — the cache key carries the
// library hash, so the lookup misses and the shape replans against the new
// library. Swapping back rehits the original entry.
func TestCacheKeyIncludesLibraryHash(t *testing.T) {
	c := newTestCompiler(t)
	origLib := c.Library()
	s := tensor.GemmShape{M: 96, N: 160, K: 224}

	oldProg, err := c.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	oldHash := c.LibraryHash()
	if oldHash == "" {
		t.Fatal("library hash empty")
	}

	plansBefore, _ := c.PlanStats()
	c.SetLibrary(otherTestLib(t))
	if c.LibraryHash() == oldHash {
		t.Fatal("different library produced the same content hash")
	}
	newProg, err := c.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if newProg == oldProg {
		t.Fatal("swapped library served the old library's cached program")
	}
	if plansAfter, _ := c.PlanStats(); plansAfter != plansBefore+1 {
		t.Fatalf("swap did not force an online replan (%d -> %d plans)", plansBefore, plansAfter)
	}

	// Swapping the original library back must rehit its cached entry — the
	// old keys were shadowed, not poisoned.
	n, _ := c.PlanStats()
	c.SetLibrary(origLib)
	back, err := c.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != oldProg {
		t.Fatal("swap-back did not rehit the original cached program")
	}
	if after, _ := c.PlanStats(); after != n {
		t.Fatalf("swap-back replanned online (%d -> %d plans)", n, after)
	}
}
