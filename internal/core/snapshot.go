package core

import (
	"context"
	"errors"
	"fmt"

	"mikpoly/internal/plancache"
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// This file is the Compiler's side of the persistent plan-cache tier: export
// the live program cache as a plancache.Snapshot, warm-start from one, swap
// the kernel library without poisoning cached programs, and pre-plan the
// shapes the traffic tracker reports as hot.

// LibraryHash returns the content digest of the compiler's kernel library —
// the component of every cache key that invalidates programs across library
// swaps. Empty when the library cannot be serialized (snapshotting disabled).
func (c *Compiler) LibraryHash() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.libHash
}

// SetLibrary swaps the offline kernel library (e.g. after a retune or a
// reload from disk). The base planner is rebuilt against the new library,
// preserving its search configuration; per-fingerprint degraded planners are
// dropped (they are derived state and rebuild on demand). Cached programs
// are NOT cleared: their keys carry the old library's hash, so they can
// never be served against the new kernels — and swapping back to the
// original library rehits them.
func (c *Compiler) SetLibrary(lib *tune.Library) {
	c.mu.Lock()
	defer c.mu.Unlock()
	base := c.planners[""]
	p := poly.NewPlanner(lib)
	p.Patterns = base.Patterns
	p.Cost = base.Cost
	p.DisablePruning = base.DisablePruning
	p.EnableSplitK = base.EnableSplitK
	p.Trace = base.Trace
	c.lib = lib
	c.libHash = lib.Hash()
	c.planner = p
	c.planners = map[string]*poly.Planner{"": p}
}

// ExportSnapshot captures every cached program planned from the current
// library as a shareable snapshot. Entries planned from a previously swapped
// library are skipped — a snapshot never mixes library generations.
func (c *Compiler) ExportSnapshot() (*plancache.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.libHash == "" {
		return nil, errors.New("core: library has no content hash; plan-cache snapshots disabled")
	}
	snap := plancache.New(c.libHash, c.lib.HW.Name)
	c.cache.each(func(key cacheKey, prog *poly.Program) {
		if key.lib != c.libHash {
			return
		}
		snap.Entries = append(snap.Entries, plancache.Entry{
			FP:       key.fp,
			Program:  prog,
			CostBits: plancache.CostBits(prog),
		})
	})
	return snap, nil
}

// ImportSnapshot warm-starts the program cache from a snapshot, returning
// how many entries were loaded. The snapshot is validated against the
// compiler's library hash and hardware first; any mismatch — retuned
// library, different planner generation, corrupted entries — rejects the
// whole snapshot (counted in PlanCache().ImportRejects) and leaves the cache
// untouched, so the replica falls back to online planning. Entries already
// cached keep their live program and recency.
func (c *Compiler) ImportSnapshot(snap *plancache.Snapshot) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := snap.Validate(c.libHash, c.lib.HW.Name); err != nil {
		c.importRejects++
		return 0, fmt.Errorf("core: rejecting plan snapshot: %w", err)
	}
	n := 0
	for _, e := range snap.Entries {
		key := cacheKey{shape: e.Program.Shape, lib: c.libHash, fp: e.FP}
		if c.cache.peek(key) {
			continue
		}
		c.cache.add(key, e.Program)
		n++
	}
	c.imported += int64(n)
	return n, nil
}

// HotShapes returns up to n shapes ordered by decayed request count, hottest
// first — the traffic-shaped working set worth pre-planning or snapshotting.
func (c *Compiler) HotShapes(n int) []tensor.GemmShape {
	return c.tracker.Hot(n)
}

// PrePlanHot plans (in the caller's goroutine) up to limit of the tracker's
// hottest shapes that are not yet cached under the current health view,
// returning how many plans were performed. Errors on individual shapes do
// not stop the sweep; the first one is returned. The serving layer's
// snapshot flusher runs this before each flush so the persisted hot set is
// complete.
func (c *Compiler) PrePlanHot(ctx context.Context, limit int) (int, error) {
	v, fp := c.currentView()
	planned := 0
	var firstErr error
	for _, s := range c.tracker.Hot(limit) {
		if err := ctx.Err(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			break
		}
		if c.Cached(s, fp) {
			continue
		}
		if _, err := c.planForView(ctx, s, v, fp); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		planned++
	}
	c.mu.Lock()
	c.prePlans += int64(planned)
	c.mu.Unlock()
	return planned, firstErr
}

// PlanCacheStats reports the plan-cache tier's counters. JSON tags match the
// serving layer's /stats wire format.
type PlanCacheStats struct {
	// LibraryHash is the digest keying every cached program ("" =
	// snapshotting disabled).
	LibraryHash string `json:"library_hash"`
	// Imported counts entries warm-loaded from snapshots; ImportRejects
	// counts whole snapshots rejected as incompatible or invalid.
	Imported      int64 `json:"imported"`
	ImportRejects int64 `json:"import_rejects"`
	// PrePlans counts background plans of tracker-hot shapes.
	PrePlans int64 `json:"preplans"`
	// TrackedShapes is the number of distinct shapes with non-zero decayed
	// weight; Observations the lifetime request count feeding the tracker.
	TrackedShapes int    `json:"tracked_shapes"`
	Observations  uint64 `json:"observations"`
}

// PlanCache returns the plan-cache tier counters.
func (c *Compiler) PlanCache() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		LibraryHash:   c.libHash,
		Imported:      c.imported,
		ImportRejects: c.importRejects,
		PrePlans:      c.prePlans,
		TrackedShapes: c.tracker.Len(),
		Observations:  c.tracker.Total(),
	}
}
