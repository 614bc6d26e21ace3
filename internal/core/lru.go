package core

import (
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
)

// LRU is a bounded map that evicts its least recently used entry when a new
// key would pass the bound. Get and Put refresh recency; Peek, RemoveIf and
// Walk do not. Entries sit in one slice linked by index, most recent first,
// so once the table has filled, a Put that evicts reuses the evicted slot and
// allocates nothing. An LRU is not goroutine-safe; every user serializes
// access under its own mutex.
type LRU[K comparable, V any] struct {
	capacity int
	index    map[K]int32
	nodes    []lruNode[K, V]
	// head is the most and tail the least recently used slot; free chains
	// the slots RemoveIf emptied through next. Each is -1 when there is none.
	head, tail, free int32
}

type lruNode[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// NewLRU returns an empty LRU holding at most capacity entries (at least 1).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		panic("core: LRU capacity must be positive")
	}
	return &LRU[K, V]{capacity: capacity, index: make(map[K]int32), head: -1, tail: -1, free: -1}
}

// reserve allocates room for a full table up front, so filling it allocates
// nothing.
func (c *LRU[K, V]) reserve() *LRU[K, V] {
	c.index = make(map[K]int32, c.capacity)
	c.nodes = make([]lruNode[K, V], 0, c.capacity)
	return c
}

// Len returns the number of entries; Cap the bound.
func (c *LRU[K, V]) Len() int { return len(c.index) }
func (c *LRU[K, V]) Cap() int { return c.capacity }

// Get returns the value for key and makes it the most recently used entry.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	i, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(i)
	return c.nodes[i].val, true
}

// Peek returns the value for key without touching recency.
func (c *LRU[K, V]) Peek(key K) (V, bool) {
	i, ok := c.index[key]
	if !ok {
		var zero V
		return zero, false
	}
	return c.nodes[i].val, true
}

// Put stores val under key as the most recently used entry. When key is new
// and the table is full, the least recently used entry makes room and is
// returned with evicted set.
func (c *LRU[K, V]) Put(key K, val V) (oldKey K, oldVal V, evicted bool) {
	if i, ok := c.index[key]; ok {
		c.nodes[i].val = val
		c.moveToFront(i)
		return oldKey, oldVal, false
	}
	var i int32
	switch {
	case len(c.index) == c.capacity:
		i = c.tail
		oldKey, oldVal, evicted = c.nodes[i].key, c.nodes[i].val, true
		c.unlink(i)
		delete(c.index, oldKey)
	case c.free >= 0:
		i = c.free
		c.free = c.nodes[i].next
	default:
		i = int32(len(c.nodes))
		c.nodes = append(c.nodes, lruNode[K, V]{})
	}
	c.nodes[i] = lruNode[K, V]{key: key, val: val, prev: -1, next: c.head}
	if c.head >= 0 {
		c.nodes[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
	c.index[key] = i
	return oldKey, oldVal, evicted
}

// RemoveIf deletes every entry for which drop returns true and returns how
// many it deleted.
func (c *LRU[K, V]) RemoveIf(drop func(K, V) bool) int {
	n := 0
	for i := c.head; i >= 0; {
		next := c.nodes[i].next
		if drop(c.nodes[i].key, c.nodes[i].val) {
			c.drop(i)
			n++
		}
		i = next
	}
	return n
}

// Walk calls fn on the entries from most to least recently used until fn
// returns false. fn must not modify the table.
func (c *LRU[K, V]) Walk(fn func(K, V) bool) {
	for i := c.head; i >= 0 && fn(c.nodes[i].key, c.nodes[i].val); i = c.nodes[i].next {
	}
}

// drop unlinks slot i, forgets its key and chains the slot onto the free list.
func (c *LRU[K, V]) drop(i int32) {
	c.unlink(i)
	delete(c.index, c.nodes[i].key)
	c.nodes[i] = lruNode[K, V]{next: c.free}
	c.free = i
}

func (c *LRU[K, V]) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev >= 0 {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next >= 0 {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *LRU[K, V]) moveToFront(i int32) {
	if i == c.head {
		return
	}
	c.unlink(i)
	c.nodes[i].prev, c.nodes[i].next = -1, c.head
	c.nodes[c.head].prev = i // the table holds i and another entry, so head >= 0
	c.head = i
}

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
	// Hits, Misses and Evictions are cumulative since compiler creation.
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

// lruCache is the bounded program cache: an LRU of programs by (shape,
// library hash, health fingerprint) with the counters CacheStats reports. It
// is not goroutine-safe; the Compiler serializes access under its mutex.
type lruCache struct {
	entries *LRU[cacheKey, *poly.Program]

	hits, misses, evictions int64
	degraded                int
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = DefaultCacheCapacity
	}
	return &lruCache{entries: NewLRU[cacheKey, *poly.Program](capacity).reserve()}
}

// hit returns the cached program for key, counting the hit and refreshing its
// recency; an absent key returns nil and changes nothing.
func (c *lruCache) hit(key cacheKey) *poly.Program {
	prog, ok := c.entries.Get(key)
	if ok {
		c.hits++
	}
	return prog
}

// get is hit for callers that plan on absence: the absent key counts a miss.
func (c *lruCache) get(key cacheKey) (*poly.Program, bool) {
	if prog := c.hit(key); prog != nil {
		return prog, true
	}
	c.misses++
	return nil, false
}

// add inserts (or refreshes) a program, evicting the least recently used
// entry when the bound is exceeded.
func (c *lruCache) add(key cacheKey, prog *poly.Program) {
	if _, ok := c.entries.Peek(key); !ok && key.fp != "" {
		c.degraded++
	}
	if old, _, evicted := c.entries.Put(key, prog); evicted {
		c.evictions++
		if old.fp != "" {
			c.degraded--
		}
	}
}

// removeShape drops the shape's entries under every health fingerprint — an
// execution-fault invalidation must not leave a stale plan behind in any
// health mode.
func (c *lruCache) removeShape(shape tensor.GemmShape) {
	c.entries.RemoveIf(func(key cacheKey, _ *poly.Program) bool {
		if key.shape != shape {
			return false
		}
		if key.fp != "" {
			c.degraded--
		}
		return true
	})
}

// shapesMRU returns up to limit distinct shapes in most-recently-used order
// — the working set worth replanning proactively when the health view
// changes.
func (c *lruCache) shapesMRU(limit int) []tensor.GemmShape {
	seen := make(map[tensor.GemmShape]bool)
	var out []tensor.GemmShape
	c.entries.Walk(func(key cacheKey, _ *poly.Program) bool {
		if len(out) == limit {
			return false
		}
		if !seen[key.shape] {
			seen[key.shape] = true
			out = append(out, key.shape)
		}
		return true
	})
	return out
}

func (c *lruCache) stats() CacheStats {
	return CacheStats{
		Capacity:  c.entries.Cap(),
		Size:      c.entries.Len(),
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Degraded:  c.degraded,
	}
}
