package kvcache

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// refArena is the reference the LRU property test holds the manager to: the
// same arena rules written out plainly, with the eviction victim picked by
// scanning every page for the one cached longest.
type refArena struct {
	q       int
	pages   []refPage
	free    []PageID
	index   map[uint64][]PageID
	clock   int
	seqs    int
	evicted map[uint64]bool
	// evictedOrder lists each hash the first time its page was evicted,
	// the order the manager's ledger books them in.
	evictedOrder []uint64
	st           Stats
}

type refPage struct {
	refs   int
	tokens []int32
	sealed bool
	hash   uint64
	cached bool
	since  int // clock tick the page was last cached at
}

type refSeq struct {
	pages  []PageID
	length int
	chain  uint64
}

func newRefArena(numPages, q int) *refArena {
	r := &refArena{q: q, pages: make([]refPage, numPages), index: map[uint64][]PageID{}, evicted: map[uint64]bool{}}
	for i := range r.pages {
		r.free = append(r.free, PageID(numPages-1-i))
	}
	r.st.Pages = numPages
	return r
}

func (r *refArena) pageBytes() int64 { return int64(r.q) * BytesPerToken }

func (r *refArena) stats() Stats {
	st := r.st
	st.FreePages = len(r.free)
	for _, p := range r.pages {
		if p.refs > 0 {
			st.ActivePages++
		}
		if p.cached {
			st.CachedPages++
		}
	}
	st.Sequences = r.seqs
	return st
}

func (r *refArena) newSeq(prompt []int32) (*refSeq, error) {
	s := &refSeq{}
	for pos := 0; pos < len(prompt); {
		blk := prompt[pos:]
		if len(blk) > r.q {
			blk = blk[:r.q]
		}
		full := len(blk) == r.q
		chain := sealChain(s.chain, blk)
		if full {
			if id, ok := r.lookup(chain, blk); ok {
				r.ref(id)
				s.pages = append(s.pages, id)
				s.chain, s.length = chain, s.length+r.q
				r.st.PrefixHits++
				r.st.PrefixHitTokens += int64(r.q)
				r.st.SavedBytes += r.pageBytes()
				pos += r.q
				continue
			}
			if r.evicted[chain] {
				r.st.RecomputedBytes += r.pageBytes()
			}
		}
		id, err := r.alloc()
		if err != nil {
			for _, id := range s.pages {
				r.unref(id)
			}
			return nil, err
		}
		r.pages[id].tokens = append([]int32(nil), blk...)
		if full {
			r.seal(id, chain)
			s.chain = chain
		}
		s.pages = append(s.pages, id)
		s.length += len(blk)
		pos += len(blk)
	}
	r.seqs++
	return s, nil
}

func (r *refArena) append(s *refSeq, tok int32) error {
	if s.length%r.q == 0 {
		id, err := r.alloc()
		if err != nil {
			return err
		}
		s.pages = append(s.pages, id)
	} else if last := s.pages[len(s.pages)-1]; r.pages[last].refs > 1 {
		id, err := r.alloc()
		if err != nil {
			return err
		}
		r.pages[id].tokens = append([]int32(nil), r.pages[last].tokens...)
		r.st.COWCopies++
		r.st.CopiedBytes += int64(len(r.pages[last].tokens)) * BytesPerToken
		r.unref(last)
		s.pages[len(s.pages)-1] = id
	}
	id := s.pages[len(s.pages)-1]
	p := &r.pages[id]
	p.tokens = append(p.tokens, tok)
	s.length++
	if len(p.tokens) == r.q {
		s.chain = sealChain(s.chain, p.tokens)
		r.seal(id, s.chain)
	}
	return nil
}

func (r *refArena) fork(s *refSeq) *refSeq {
	c := &refSeq{pages: append([]PageID(nil), s.pages...), length: s.length, chain: s.chain}
	for _, id := range c.pages {
		r.ref(id)
	}
	r.seqs++
	return c
}

func (r *refArena) release(s *refSeq) {
	for _, id := range s.pages {
		r.unref(id)
	}
	r.seqs--
}

func (r *refArena) lookup(chain uint64, blk []int32) (PageID, bool) {
	for _, id := range r.index[chain] {
		if p := &r.pages[id]; slices.Equal(p.tokens, blk) {
			if p.cached {
				p.cached = false
				r.st.Revived++
			}
			return id, true
		}
	}
	return 0, false
}

func (r *refArena) ref(id PageID) {
	p := &r.pages[id]
	if p.cached {
		p.cached = false
		r.st.Revived++
	}
	p.refs++
}

func (r *refArena) unref(id PageID) {
	p := &r.pages[id]
	if p.refs--; p.refs > 0 {
		return
	}
	if p.sealed {
		r.clock++
		p.cached, p.since = true, r.clock
		return
	}
	r.release1(id)
}

func (r *refArena) alloc() (PageID, error) {
	if len(r.free) == 0 && !r.evict() {
		r.st.FailedAllocs++
		return 0, ErrNoPages
	}
	id := r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	r.pages[id] = refPage{refs: 1}
	r.st.Allocs++
	return id, nil
}

// evict scans the whole arena for the page cached longest.
func (r *refArena) evict() bool {
	victim := PageID(-1)
	for i, p := range r.pages {
		if p.cached && (victim < 0 || p.since < r.pages[victim].since) {
			victim = PageID(i)
		}
	}
	if victim < 0 {
		return false
	}
	p := &r.pages[victim]
	r.st.Evictions++
	if !r.evicted[p.hash] {
		r.evicted[p.hash] = true
		r.evictedOrder = append(r.evictedOrder, p.hash)
	}
	p.cached = false
	r.release1(victim)
	return true
}

// release1 returns a page to the free list, dropping it from the index.
func (r *refArena) release1(id PageID) {
	p := &r.pages[id]
	if p.sealed {
		ids := r.index[p.hash]
		for i, x := range ids {
			if x == id {
				ids = append(ids[:i:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(r.index, p.hash)
		} else {
			r.index[p.hash] = ids
		}
		p.sealed = false
	}
	r.free = append(r.free, id)
	r.st.Frees++
}

func (r *refArena) seal(id PageID, chain uint64) {
	r.pages[id].sealed, r.pages[id].hash = true, chain
	r.index[chain] = append(r.index[chain], id)
}

// cachedOrder lists the cached pages oldest first.
func (r *refArena) cachedOrder() []PageID {
	var ids []PageID
	for i, p := range r.pages {
		if p.cached {
			ids = append(ids, PageID(i))
		}
	}
	sort.Slice(ids, func(a, b int) bool { return r.pages[ids[a]].since < r.pages[ids[b]].since })
	return ids
}

// matchRef reports the first difference between the manager and the
// reference: Stats, the free list, every held page, the cached order and
// the evicted hashes in eviction order.
func matchRef(m *Manager, r *refArena, live []*Sequence, ref []*refSeq) error {
	if got, want := m.Stats(), r.stats(); got != want {
		return fmt.Errorf("stats\n got %+v\nwant %+v", got, want)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !slices.Equal(m.free, r.free) {
		return fmt.Errorf("free list %v, want %v", m.free, r.free)
	}
	for i := range m.pages {
		p, q := &m.pages[i], &r.pages[i]
		if p.onFree {
			continue
		}
		if int(p.refs) != q.refs || p.cached != q.cached || p.sealed != q.sealed || p.hash != q.hash ||
			!slices.Equal(p.tokens[:p.n], q.tokens) {
			return fmt.Errorf("page %d: refs=%d cached=%v sealed=%v tokens=%v, want refs=%d cached=%v sealed=%v tokens=%v",
				i, p.refs, p.cached, p.sealed, p.tokens[:p.n], q.refs, q.cached, q.sealed, q.tokens)
		}
	}
	var order []PageID
	for id := m.lruHead; id != nilPage && len(order) <= len(m.pages); id = m.pages[id].next {
		order = append(order, id)
	}
	if want := r.cachedOrder(); !slices.Equal(order, want) {
		return fmt.Errorf("cached order %v, want %v", order, want)
	}
	if !slices.Equal(m.evictedFIFO, r.evictedOrder) {
		return fmt.Errorf("victim hashes %x, want %x", m.evictedFIFO, r.evictedOrder)
	}
	for i, s := range live {
		if !slices.Equal(s.pages, ref[i].pages) || s.length != ref[i].length || s.chain != ref[i].chain {
			return fmt.Errorf("sequence %d: pages %v len %d, want %v len %d", s.id, s.pages, s.length, ref[i].pages, ref[i].length)
		}
	}
	return nil
}

// TestLRUMatchesScanReference drives seeded random NewSequence, Append,
// Fork and Release calls over shared prefixes on a 24-page arena, and after
// every step holds the manager to the scan-based reference: the same victims
// in the same order, the same Stats, the same page contents, and clean
// invariants.
func TestLRUMatchesScanReference(t *testing.T) {
	const pages, q, steps = 24, 4, 3000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(Config{NumPages: pages, TokensPerPage: q})
		r := newRefArena(pages, q)
		var prefixes [4][]int32
		for i := range prefixes {
			prefixes[i] = prompt(seed*10+int64(i), 12)
		}
		var live []*Sequence
		var ref []*refSeq
		for step := 0; step < steps; step++ {
			var op string
			switch k := rng.Intn(20); {
			case len(live) == 0 || k < 7 && len(live) < 8:
				p := append([]int32(nil), prefixes[rng.Intn(len(prefixes))][:rng.Intn(13)]...)
				for n := 1 + rng.Intn(8); n > 0; n-- {
					p = append(p, int32(rng.Intn(3)))
				}
				op = fmt.Sprintf("NewSequence(%v)", p)
				s, err := m.NewSequence("t", p)
				rs, rerr := r.newSeq(p)
				if err != rerr {
					t.Fatalf("seed %d step %d %s: err %v, reference %v", seed, step, op, err, rerr)
				}
				if err == nil {
					live, ref = append(live, s), append(ref, rs)
				}
			case k < 12:
				i, tok := rng.Intn(len(live)), int32(rng.Intn(3))
				op = fmt.Sprintf("Append(seq %d, %d)", live[i].id, tok)
				if err, rerr := m.Append(live[i], tok), r.append(ref[i], tok); err != rerr {
					t.Fatalf("seed %d step %d %s: err %v, reference %v", seed, step, op, err, rerr)
				}
			case k < 14:
				i := rng.Intn(len(live))
				op = fmt.Sprintf("Fork(seq %d)", live[i].id)
				live, ref = append(live, m.Fork(live[i])), append(ref, r.fork(ref[i]))
			default:
				i := rng.Intn(len(live))
				op = fmt.Sprintf("Release(seq %d)", live[i].id)
				m.Release(live[i])
				r.release(ref[i])
				live = append(live[:i], live[i+1:]...)
				ref = append(ref[:i], ref[i+1:]...)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
			if err := matchRef(m, r, live, ref); err != nil {
				t.Fatalf("seed %d step %d %s: %v", seed, step, op, err)
			}
		}
		if r.st.Evictions < 100 || r.st.Revived < 100 || r.st.COWCopies == 0 || r.st.FailedAllocs == 0 {
			t.Fatalf("seed %d exercised too little: %+v", seed, r.stats())
		}
	}
}

// CheckInvariants must catch a corrupted cached list or onFree flag.
func TestCheckInvariantsCatchesBrokenLinks(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(m *Manager)
		want    string
	}{
		{"asymmetric prev", func(m *Manager) { m.pages[m.pages[m.lruHead].next].prev = m.lruTail }, "prev="},
		{"cycle", func(m *Manager) { m.pages[m.lruTail].next = m.lruHead }, "cycle"},
		{"dropped node", func(m *Manager) {
			mid := m.pages[m.lruHead].next
			m.pages[m.lruHead].next = m.pages[mid].next
			m.pages[m.pages[mid].next].prev = m.lruHead
		}, "holds 2 pages, 3 are cached"},
		{"wrong tail", func(m *Manager) { m.lruTail = m.pages[m.lruTail].prev }, "tail is"},
		{"stale onFree", func(m *Manager) { m.pages[m.lruHead].onFree = true }, "onFree=true"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(Config{NumPages: 8, TokensPerPage: 4})
			m.Release(mustSeq(t, m, "t", prompt(1, 12))) // three cached pages
			checkOK(t, m)
			tc.corrupt(m)
			err := m.CheckInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("CheckInvariants = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// The evicted-hash ledger keeps the newest evictedLedger hashes: after
// evictedLedger+k distinct evictions the first k no longer book a recompute
// and every later one still does.
func TestEvictedLedgerKeepsNewest(t *testing.T) {
	const k = 3
	evictions := evictedLedger + k
	// One page per holder, one page for the evicting stream: each sealed
	// two-token prompt evicts the one before it.
	m := New(Config{NumPages: evictions + 1, TokensPerPage: 2})
	holders := make([]*Sequence, evictions)
	for i := range holders {
		holders[i] = mustSeq(t, m, "t", []int32{int32(1_000_000 + i)}) // a private partial page
	}
	block := func(i int) []int32 { return []int32{int32(i), 7} }
	for i := 0; i <= evictions; i++ {
		m.Release(mustSeq(t, m, "t", block(i)))
	}
	if st := m.Stats(); st.Evictions != int64(evictions) {
		t.Fatalf("evictions = %d, want %d", st.Evictions, evictions)
	}
	if len(m.evictedFIFO) != evictedLedger || len(m.evicted) != evictedLedger {
		t.Fatalf("ledger holds %d/%d hashes, want %d", len(m.evictedFIFO), len(m.evicted), evictedLedger)
	}
	// Free the holders' pages so re-presenting a block evicts nothing.
	for _, h := range holders {
		m.Release(h)
	}
	for i := 0; i < evictions; i++ {
		before := m.Stats().RecomputedBytes
		m.Release(mustSeq(t, m, "t", block(i)))
		booked := m.Stats().RecomputedBytes - before
		if got, want := booked != 0, i >= k; got != want {
			t.Fatalf("block %d booked %d recomputed bytes, want booked=%v", i, booked, want)
		}
	}
	checkOK(t, m)
}

// Freeing a page already on the free list panics at the cause.
func TestDoubleFreePanics(t *testing.T) {
	m := New(Config{NumPages: 4, TokensPerPage: 4})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "freed twice") {
			t.Fatalf("recover() = %v, want a double-free panic", r)
		}
	}()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.freeLocked(m.free[0])
}

// BenchmarkAllocUnderPressure allocates one page into an arena whose every
// page is cached, so each allocation evicts, then releases it back to the
// cache. No step scans the arena, so the 65 536-page case should cost about
// what the 2 048-page one does, give or take the CPU-cache misses of a 32×
// larger arena and prefix index.
func BenchmarkAllocUnderPressure(b *testing.B) {
	for _, pages := range []int{2048, 65536} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			const q = 16
			m := New(Config{NumPages: pages, TokensPerPage: q})
			fill, err := m.NewSequence("t", prompt(1, q*pages))
			if err != nil {
				b.Fatal(err)
			}
			m.Release(fill)
			blk := make([]int32, q)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blk[0] = -1 - int32(i) // a block no page holds yet
				s, err := m.NewSequence("t", blk)
				if err != nil {
					b.Fatal(err)
				}
				m.Release(s)
			}
			b.StopTimer()
			if st := m.Stats(); st.Evictions < int64(b.N) || st.FreePages != 0 {
				b.Fatalf("allocations did not evict: %+v", st)
			}
		})
	}
}
