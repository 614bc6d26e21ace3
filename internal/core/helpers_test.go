package core

import (
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
)

// ClearCache drops every cached program, keeping the cumulative counters.
func (c *Compiler) ClearCache() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache.entries.RemoveIf(func(cacheKey, *poly.Program) bool { return true })
	c.cache.degraded = 0
}

// Invalidate drops the cached program for one shape under every health
// fingerprint, so the next request re-plans it.
func (c *Compiler) Invalidate(shape tensor.GemmShape) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cache.entries.RemoveIf(func(key cacheKey, _ *poly.Program) bool {
		if key.shape != shape {
			return false
		}
		if key.fp != "" {
			c.cache.degraded--
		}
		return true
	})
}

// Cached reports whether a program for (shape, health fingerprint) is
// currently cached, without touching recency or the hit and miss counters.
func (c *Compiler) Cached(shape tensor.GemmShape, fp string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.cache.entries.Peek(cacheKey{shape: shape, fp: fp})
	return ok
}

// Len reports how many distinct shapes currently have non-zero weight.
func (t *shapeTracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.counts)
}
