package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refLRU is the reference the LRU is held to: a slice of entries, most
// recently used first, searched by scanning.
type refLRU struct {
	cap     int
	entries []refEntry
}

type refEntry struct{ k, v int }

func (r *refLRU) find(k int) int {
	for i, e := range r.entries {
		if e.k == k {
			return i
		}
	}
	return -1
}

func (r *refLRU) get(k int) (int, bool) {
	i := r.find(k)
	if i < 0 {
		return 0, false
	}
	e := r.entries[i]
	r.entries = append([]refEntry{e}, append(r.entries[:i:i], r.entries[i+1:]...)...)
	return e.v, true
}

func (r *refLRU) put(k, v int) (int, int, bool) {
	if i := r.find(k); i >= 0 {
		r.entries = append(r.entries[:i:i], r.entries[i+1:]...)
		r.entries = append([]refEntry{{k, v}}, r.entries...)
		return 0, 0, false
	}
	var old refEntry
	evicted := len(r.entries) == r.cap
	if evicted {
		old = r.entries[len(r.entries)-1]
		r.entries = r.entries[:len(r.entries)-1]
	}
	r.entries = append([]refEntry{{k, v}}, r.entries...)
	return old.k, old.v, evicted
}

func (r *refLRU) remove(k int) bool {
	i := r.find(k)
	if i < 0 {
		return false
	}
	r.entries = append(r.entries[:i:i], r.entries[i+1:]...)
	return true
}

func (r *refLRU) removeIf(drop func(k, v int) bool) int {
	kept := r.entries[:0:0]
	for _, e := range r.entries {
		if !drop(e.k, e.v) {
			kept = append(kept, e)
		}
	}
	n := len(r.entries) - len(kept)
	r.entries = kept
	return n
}

// TestLRUMatchesSliceReference drives the LRU and the slice reference with one
// seeded stream of Get, Peek, Put, single-key and predicate RemoveIf
// and partial MRU walks at every capacity from 1 to 8, over a key space larger than the
// capacity so evictions and slot reuse after removals both happen, and
// requires every answer and the full recency order to agree after each step,
// with never more slots than the capacity.
func TestLRUMatchesSliceReference(t *testing.T) {
	for capacity := 1; capacity <= 8; capacity++ {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(capacity)))
			c := NewLRU[int, int](capacity)
			r := &refLRU{cap: capacity}
			evictions, removals := 0, 0
			for step := 0; step < 2000; step++ {
				k := rng.Intn(2*capacity + 2)
				var op string
				switch n := rng.Intn(20); {
				case n < 5:
					op = fmt.Sprintf("Get(%d)", k)
					v, ok := c.Get(k)
					if rv, rok := r.get(k); v != rv || ok != rok {
						t.Fatalf("cap %d seed %d step %d %s = %d, %v; reference %d, %v", capacity, seed, step, op, v, ok, rv, rok)
					}
				case n < 7:
					op = fmt.Sprintf("Peek(%d)", k)
					v, ok := c.Peek(k)
					i := r.find(k)
					if ok != (i >= 0) || ok && v != r.entries[i].v {
						t.Fatalf("cap %d seed %d step %d %s = %d, %v; reference holds it at %d", capacity, seed, step, op, v, ok, i)
					}
				case n < 14:
					v := rng.Int()
					op = fmt.Sprintf("Put(%d, %d)", k, v)
					ok, ov, ev := c.Put(k, v)
					rk, rv, rev := r.put(k, v)
					if ok != rk || ov != rv || ev != rev {
						t.Fatalf("cap %d seed %d step %d %s evicted (%d, %d, %v); reference (%d, %d, %v)", capacity, seed, step, op, ok, ov, ev, rk, rv, rev)
					}
					if ev {
						evictions++
					}
				case n < 17:
					op = fmt.Sprintf("RemoveIf(k == %d)", k)
					got := c.RemoveIf(func(key, _ int) bool { return key == k })
					if ok := r.remove(k); got != 1 && ok || got != 0 && !ok {
						t.Fatalf("cap %d seed %d step %d %s removed %d; reference held it: %v", capacity, seed, step, op, got, ok)
					}
					removals += got
				case n < 18:
					mod := 2 + rng.Intn(3)
					op = fmt.Sprintf("RemoveIf(k%%%d == %d)", mod, k%mod)
					drop := func(key, _ int) bool { return key%mod == k%mod }
					if got, want := c.RemoveIf(drop), r.removeIf(drop); got != want {
						t.Fatalf("cap %d seed %d step %d %s removed %d; reference %d", capacity, seed, step, op, got, want)
					}
				case n < 19:
					limit := rng.Intn(capacity + 1)
					op = fmt.Sprintf("Walk(first %d)", limit)
					var got []refEntry
					c.Walk(func(key, v int) bool {
						if len(got) == limit {
							return false
						}
						got = append(got, refEntry{key, v})
						return true
					})
					want := r.entries[:min(limit, len(r.entries))]
					if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
						t.Fatalf("cap %d seed %d step %d %s = %v; reference %v", capacity, seed, step, op, got, want)
					}
				default:
					continue
				}
				var order []refEntry
				c.Walk(func(key, v int) bool { order = append(order, refEntry{key, v}); return true })
				if len(c.nodes) > c.Cap() {
					t.Fatalf("cap %d seed %d step %d %s: %d slots for %d entries; emptied slots are not reused", capacity, seed, step, op, len(c.nodes), c.Len())
				}
				if c.Len() != len(r.entries) || c.Len() > c.Cap() || len(order) != len(r.entries) ||
					len(order) > 0 && !reflect.DeepEqual(order, r.entries) {
					t.Fatalf("cap %d seed %d step %d %s: Len %d, order %v; reference %v", capacity, seed, step, op, c.Len(), order, r.entries)
				}
			}
			if evictions < 50 || removals < 50 {
				t.Fatalf("cap %d seed %d exercised too little: %d evictions, %d removals", capacity, seed, evictions, removals)
			}
		}
	}
}

// TestLRUReusesSlots: a full table that keeps evicting allocates nothing.
func TestLRUReusesSlots(t *testing.T) {
	c := NewLRU[int, int](64)
	for i := 0; i < 64; i++ {
		c.Put(i, i)
	}
	next := 64
	if allocs := testing.AllocsPerRun(100, func() {
		c.Put(next, next)
		c.Get(next - 10)
		next++
	}); allocs != 0 {
		t.Fatalf("%v allocations per evicting Put", allocs)
	}
}
