package core

import (
	"sort"
	"sync"

	"mikpoly/internal/tensor"
)

// trackerEpoch is the observation count between decay steps: every epoch the
// tracker halves all counts, so a shape that stops appearing fades out after
// a few epochs instead of pinning the hot set forever. Decay is driven by
// traffic volume rather than wall clock, which keeps the tracker fully
// deterministic for replayed traces.
const trackerEpoch = 1024

// shapeTracker maintains an exponentially decayed count per observed GEMM
// shape. It answers "which shapes are hot right now" (Compiler.HotShapes).
// Safe for concurrent use.
type shapeTracker struct {
	mu     sync.Mutex
	counts map[tensor.GemmShape]float64
	seen   int // observations since the last decay step
}

// newShapeTracker returns an empty tracker.
func newShapeTracker() *shapeTracker {
	return &shapeTracker{counts: make(map[tensor.GemmShape]float64)}
}

// Observe records one request for shape.
func (t *shapeTracker) Observe(shape tensor.GemmShape) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[shape]++
	t.seen++
	if t.seen >= trackerEpoch {
		t.seen = 0
		for s, c := range t.counts {
			c /= 2
			if c < 0.5 {
				delete(t.counts, s)
			} else {
				t.counts[s] = c
			}
		}
	}
}

// Hot returns up to n shapes ordered by decayed count, hottest first. Ties
// break on the shape's field order (M, N, K) so the result is deterministic
// regardless of map iteration order.
func (t *shapeTracker) Hot(n int) []tensor.GemmShape {
	if n <= 0 {
		return nil
	}
	t.mu.Lock()
	type entry struct {
		shape tensor.GemmShape
		count float64
	}
	all := make([]entry, 0, len(t.counts))
	for s, c := range t.counts {
		all = append(all, entry{s, c})
	}
	t.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		a, b := all[i].shape, all[j].shape
		if a.M != b.M {
			return a.M < b.M
		}
		if a.N != b.N {
			return a.N < b.N
		}
		return a.K < b.K
	})
	if len(all) > n {
		all = all[:n]
	}
	out := make([]tensor.GemmShape, len(all))
	for i, e := range all {
		out[i] = e.shape
	}
	return out
}
