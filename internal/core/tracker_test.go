package core

import (
	"testing"

	"mikpoly/internal/tensor"
)

func TestTrackerHotOrdering(t *testing.T) {
	tr := newShapeTracker()
	a := tensor.GemmShape{M: 128, N: 768, K: 768}
	b := tensor.GemmShape{M: 384, N: 3072, K: 768}
	c := tensor.GemmShape{M: 8, N: 4096, K: 4096}
	for i := 0; i < 5; i++ {
		tr.Observe(b)
	}
	for i := 0; i < 3; i++ {
		tr.Observe(a)
	}
	tr.Observe(c)

	hot := tr.Hot(10)
	want := []tensor.GemmShape{b, a, c}
	if len(hot) != len(want) {
		t.Fatalf("Hot returned %d shapes, want %d", len(hot), len(want))
	}
	for i := range want {
		if hot[i] != want[i] {
			t.Fatalf("Hot[%d] = %v, want %v", i, hot[i], want[i])
		}
	}
	if got := tr.Hot(1); len(got) != 1 || got[0] != b {
		t.Fatalf("Hot(1) = %v, want [%v]", got, b)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
}

// Ties must break on (M, N, K) so the hot set is stable across map iteration
// orders — a replayed trace must report the same hot set.
func TestTrackerTieBreak(t *testing.T) {
	tr := newShapeTracker()
	shapes := []tensor.GemmShape{
		{M: 512, N: 512, K: 512},
		{M: 64, N: 4096, K: 64},
		{M: 64, N: 64, K: 4096},
		{M: 64, N: 64, K: 64},
	}
	for _, s := range shapes {
		tr.Observe(s)
	}
	want := []tensor.GemmShape{
		{M: 64, N: 64, K: 64},
		{M: 64, N: 64, K: 4096},
		{M: 64, N: 4096, K: 64},
		{M: 512, N: 512, K: 512},
	}
	for trial := 0; trial < 8; trial++ {
		hot := tr.Hot(10)
		for i := range want {
			if hot[i] != want[i] {
				t.Fatalf("trial %d: Hot[%d] = %v, want %v", trial, i, hot[i], want[i])
			}
		}
	}
}

// TestTrackerDecay drives exactly one epoch and checks the halving: shapes
// whose decayed weight drops below 0.5 vanish, heavier ones persist.
func TestTrackerDecay(t *testing.T) {
	tr := newShapeTracker()
	cold := tensor.GemmShape{M: 1, N: 1, K: 1}
	hotS := tensor.GemmShape{M: 2, N: 2, K: 2}
	tr.Observe(cold) // count 1: halves to 0.5 → survives one epoch
	for i := 0; i < trackerEpoch-1; i++ {
		tr.Observe(hotS)
	}
	// Epoch boundary hit on the last Observe above: cold 1→0.5, hot 1023→511.5.
	if tr.Len() != 2 {
		t.Fatalf("after one epoch: Len = %d, want 2 (cold at 0.5 survives)", tr.Len())
	}
	if got := tr.Hot(1); got[0] != hotS {
		t.Fatalf("hottest = %v, want %v", got[0], hotS)
	}

	// A second epoch without cold traffic: 0.5→0.25 < 0.5 → evicted.
	for i := 0; i < trackerEpoch; i++ {
		tr.Observe(hotS)
	}
	if tr.Len() != 1 {
		t.Fatalf("after second epoch: Len = %d, want 1 (cold shape faded out)", tr.Len())
	}
	if got := tr.Hot(10); len(got) != 1 || got[0] != hotS {
		t.Fatalf("Hot = %v, want [%v]", got, hotS)
	}
}
