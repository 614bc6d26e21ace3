package lib

import "testing"

// A test's call does not count as a caller.
func TestOracle(t *testing.T) {
	if Oracle() != Used() || Unused() != 2 {
		t.Fatal("fixture")
	}
}
