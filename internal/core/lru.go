package core

import (
	"container/list"

	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
)

// DefaultCacheCapacity bounds the program cache when no explicit capacity is
// configured. Cached programs are small (a handful of regions), but a
// serving process sees an unbounded stream of distinct runtime shapes, so
// the cache must be bounded to hold memory steady under adversarial or
// long-tailed traffic.
const DefaultCacheCapacity = 1024

// CacheStats reports the program cache's bound and cumulative behaviour.
// JSON tags match the snake_case wire format of the serving layer's /stats.
type CacheStats struct {
	// Capacity is the configured bound; Size is the current entry count
	// (Size <= Capacity always holds).
	Capacity int `json:"capacity"`
	Size     int `json:"size"`
	// Hits, Misses and Evictions are cumulative since compiler creation;
	// ClearCache resets Size but not the counters.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Degraded is the number of cached programs planned against a
	// non-healthy hardware view (fingerprint != ""). Healthy and degraded
	// plans for the same shape are distinct entries — the cache never
	// serves one health mode a program planned for another.
	Degraded int `json:"degraded"`
}

// cacheKey identifies a cached program: the runtime shape, the content hash
// of the kernel library it was planned from, and the health fingerprint of
// the hardware view it was planned against ("" = pristine). Keying on all
// three is what prevents cache poisoning: a program polymerized for 107 live
// PEs must never be served once PE 31 is quarantined (and the healthy plan
// must come back verbatim once the view recovers), and a program planned
// from a retuned or reloaded library must never be served against the old
// one's kernels — shapes alone cannot distinguish two libraries whose
// micro-kernel models disagree.
type cacheKey struct {
	shape tensor.GemmShape
	lib   string
	fp    string
}

// lruEntry is one cached program keyed by (shape, library hash, health
// fingerprint).
type lruEntry struct {
	key  cacheKey
	prog *poly.Program
}

// lruCache is a bounded least-recently-used program cache. It is not
// goroutine-safe; the Compiler serializes access under its mutex.
type lruCache struct {
	capacity int
	ll       *list.List // front = most recently used
	items    map[cacheKey]*list.Element

	hits, misses, evictions int64
	degraded                int
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	return &lruCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[cacheKey]*list.Element, capacity),
	}
}

// hit returns the cached program for key, counting the hit and refreshing its
// recency; an absent key returns nil and changes nothing.
func (c *lruCache) hit(key cacheKey) *poly.Program {
	el, ok := c.items[key]
	if !ok {
		return nil
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).prog
}

// get is hit for callers that plan on absence: the absent key counts a miss.
func (c *lruCache) get(key cacheKey) (*poly.Program, bool) {
	if prog := c.hit(key); prog != nil {
		return prog, true
	}
	c.misses++
	return nil, false
}

// peek reports whether key is cached without touching recency or counters.
func (c *lruCache) peek(key cacheKey) bool {
	_, ok := c.items[key]
	return ok
}

// add inserts (or refreshes) a program, evicting the least recently used
// entry when the bound is exceeded.
func (c *lruCache) add(key cacheKey, prog *poly.Program) {
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).prog = prog
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry{key: key, prog: prog})
	if key.fp != "" {
		c.degraded++
	}
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		k := oldest.Value.(*lruEntry).key
		delete(c.items, k)
		if k.fp != "" {
			c.degraded--
		}
		c.evictions++
	}
}

// remove drops one key if present.
func (c *lruCache) remove(key cacheKey) {
	if el, ok := c.items[key]; ok {
		c.ll.Remove(el)
		delete(c.items, key)
		if key.fp != "" {
			c.degraded--
		}
	}
}

// removeShape drops the shape's entries under every health fingerprint — an
// execution-fault invalidation must not leave a stale plan behind in any
// health mode.
func (c *lruCache) removeShape(shape tensor.GemmShape) {
	for key, el := range c.items {
		if key.shape == shape {
			c.ll.Remove(el)
			delete(c.items, key)
			if key.fp != "" {
				c.degraded--
			}
		}
	}
}

// shapesMRU returns up to limit distinct shapes in most-recently-used order
// — the working set worth replanning proactively when the health view
// changes.
func (c *lruCache) shapesMRU(limit int) []tensor.GemmShape {
	seen := make(map[tensor.GemmShape]bool)
	var out []tensor.GemmShape
	for el := c.ll.Front(); el != nil && len(out) < limit; el = el.Next() {
		s := el.Value.(*lruEntry).key.shape
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// clear drops every entry, keeping the cumulative counters.
func (c *lruCache) clear() {
	c.ll.Init()
	c.items = make(map[cacheKey]*list.Element, c.capacity)
	c.degraded = 0
}

func (c *lruCache) len() int { return c.ll.Len() }

func (c *lruCache) stats() CacheStats {
	return CacheStats{
		Capacity:  c.capacity,
		Size:      c.ll.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Degraded:  c.degraded,
	}
}
