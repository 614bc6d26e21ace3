// Package kvcache is the paged KV-cache manager behind the LLM serving
// scheduler: a fixed-size-page arena carved out of the device's M_global
// budget, per-sequence page tables, hash-based prefix reuse, and
// copy-on-write on divergence.
//
// Sequences append tokens one page at a time. A page that fills up is
// *sealed* — it becomes immutable and is registered in a prefix index keyed
// by the chain hash of every token from the sequence start, so a later
// sequence whose prompt begins with the same tokens at the same positions
// shares the page instead of recomputing its KV entries. Partial tail pages
// are private to one sequence unless the sequence is forked (parallel
// sampling); a write to a page with more than one reference copies it first
// (COW), so branches can never corrupt each other's KV state.
//
// The manager carries simulated KV contents — one deterministic word per
// (token, absolute position) — rather than real tensors. That is what makes
// the subsystem's central claim testable: decode driven through shared
// prefixes and COW copies must observe bitwise-identical KV contents to
// decode with sharing disabled, and the tests assert exactly that.
//
// Eviction: when a sequence releases its pages, sealed prefix pages are
// retained in a cached LRU (refcount zero, still indexed) and reclaimed only
// when the free list runs dry. The cached pages sit on an intrusive doubly
// linked list in the order they were cached, so caching, reviving and
// evicting a page are O(1) whatever the arena size. Every block whose
// recompute was avoided by a prefix hit is accounted in SavedBytes; every
// block that *would* have hit a page the LRU already reclaimed is accounted
// in RecomputedBytes — the exact bytes-saved-versus-recomputed ledger the
// eviction policy is judged by.
package kvcache

import (
	"errors"
	"fmt"
	"sync"
)

// ErrNoPages means the arena cannot satisfy an allocation even after
// reclaiming every cached page. The scheduler reacts by keeping the request
// queued rather than failing it.
var ErrNoPages = errors.New("kvcache: out of pages")

// Config sizes the pager. Zero fields take defaults.
type Config struct {
	// NumPages is the arena size in pages (default 2048).
	NumPages int
	// TokensPerPage is the page granularity in tokens (default 16). It is
	// also the KV padding quantum the decode batcher needs: shapes pad to
	// the next page boundary, nothing more.
	TokensPerPage int
	// DisableSharing turns the prefix index off: every page is private and
	// nothing is retained after release. The correctness baseline the
	// bitwise-equality tests compare against, and the ablation knob.
	DisableSharing bool
}

// BytesPerToken is the KV footprint of one token of one sequence: Llama2-13b
// under 4-way tensor parallelism, K+V × hidden/4 × fp16.
const BytesPerToken = 5120

// evictedLedger bounds the evicted-hash ledger used to account recomputed
// bytes exactly, in hashes.
const evictedLedger = 8192

// WithDefaults returns the config with zero fields replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.NumPages <= 0 {
		c.NumPages = 2048
	}
	if c.TokensPerPage <= 0 {
		c.TokensPerPage = 16
	}
	return c
}

// PageID indexes the arena.
type PageID int32

// page is one fixed-size KV page. tokens and data are parallel: data[i] is
// the simulated KV content of tokens[i] at its absolute sequence position.
type page struct {
	refs   int32
	n      int // tokens stored
	tokens []int32
	data   []uint64
	// sealed pages are full, immutable, and indexed under hash (the chain
	// hash of every token from sequence start through this page).
	sealed bool
	hash   uint64
	// cached pages are sealed pages with zero references retained for
	// future prefix hits, linked oldest first through prev and next.
	cached     bool
	prev, next PageID
	// onFree marks a page on the free list.
	onFree bool
}

// nilPage ends the cached list.
const nilPage PageID = -1

// Sequence is one sequence's view of the cache: an ordered page table plus
// the chain hash of its sealed prefix.
type Sequence struct {
	id      uint64
	tenant  string
	pages   []PageID
	length  int
	reused  int // tokens acquired via prefix hits instead of recompute
	chain   uint64
	dead    bool
	digest  uint64 // running fold of KV words, updated as tokens land
	ndigest int    // tokens folded into digest so far
}

// ID returns the sequence's manager-unique id.
func (s *Sequence) ID() uint64 { return s.id }

// Tenant returns the owning tenant.
func (s *Sequence) Tenant() string { return s.tenant }

// Len returns the sequence length in tokens.
func (s *Sequence) Len() int { return s.length }

// Reused returns how many prompt tokens were satisfied by prefix hits —
// tokens whose KV entries the scheduler does not have to prefill.
func (s *Sequence) Reused() int { return s.reused }

// Pages returns the page-table length.
func (s *Sequence) Pages() int { return len(s.pages) }

// Stats is the manager's cumulative + instantaneous accounting. All byte
// fields are exact: they are derived from page-granularity events, never
// estimated.
type Stats struct {
	Pages       int `json:"pages"`
	FreePages   int `json:"free_pages"`
	ActivePages int `json:"active_pages"` // refs > 0
	CachedPages int `json:"cached_pages"` // retained, refs == 0
	Sequences   int `json:"sequences"`

	PrefixHits      int64 `json:"prefix_hits"`       // blocks shared instead of recomputed
	PrefixHitTokens int64 `json:"prefix_hit_tokens"` // tokens those blocks carried
	Revived         int64 `json:"revived"`           // hits served by a cached (refs==0) page
	COWCopies       int64 `json:"cow_copies"`
	CopiedBytes     int64 `json:"copied_bytes"` // COW page-copy traffic (bandwidth, charged by the scheduler)
	Evictions       int64 `json:"evictions"`    // cached pages reclaimed
	SavedBytes      int64 `json:"saved_bytes"`  // KV bytes not recomputed thanks to sharing
	RecomputedBytes int64 `json:"recomputed_bytes"`
	Allocs          int64 `json:"allocs"`
	Frees           int64 `json:"frees"`
	FailedAllocs    int64 `json:"failed_allocs"`
}

// Manager is the paged KV-cache manager. Safe for concurrent use.
type Manager struct {
	mu    sync.Mutex
	cfg   Config
	pages []page
	free  []PageID
	// index maps a chain hash to the sealed pages carrying it (a short
	// collision list; token contents are always verified before sharing).
	index map[uint64][]PageID
	// lruHead and lruTail are the oldest and newest cached pages (nilPage
	// when none is cached); eviction pops the head.
	lruHead, lruTail PageID
	// evicted is the bounded ledger of chain hashes whose page was
	// reclaimed, backing the recomputed-bytes accounting. evictedFIFO is
	// its ring of at most evictedLedger hashes in eviction order; once
	// full, evictedNext is the oldest slot, overwritten by the next hash.
	evicted     map[uint64]struct{}
	evictedFIFO []uint64
	evictedNext int
	seqs        int
	nextSeq     uint64
	stats       Stats
	// active and cached count the pages with refs > 0 and the cached
	// pages, kept at every refs and cached transition so Stats never
	// scans the arena (CheckInvariants checks them against a scan).
	active, cached int
}

// New builds a manager. Zero Config fields take defaults.
func New(cfg Config) *Manager {
	cfg = cfg.WithDefaults()
	m := &Manager{
		cfg:     cfg,
		pages:   make([]page, cfg.NumPages),
		free:    make([]PageID, cfg.NumPages),
		index:   make(map[uint64][]PageID),
		lruHead: nilPage,
		lruTail: nilPage,
		evicted: make(map[uint64]struct{}),
	}
	for i := range m.pages {
		m.pages[i].tokens = make([]int32, 0, cfg.TokensPerPage)
		m.pages[i].data = make([]uint64, 0, cfg.TokensPerPage)
		m.pages[i].onFree = true
		// Free list in reverse so allocation order starts at page 0.
		m.free[i] = PageID(cfg.NumPages - 1 - i)
	}
	m.stats.Pages = cfg.NumPages
	return m
}

// Config returns the effective (defaulted) configuration.
func (m *Manager) Config() Config { return m.cfg }

// PageBytes returns one page's KV footprint.
func (m *Manager) PageBytes() int64 {
	return int64(m.cfg.TokensPerPage) * BytesPerToken
}

// kvWord is the simulated KV content of token tok at absolute position pos:
// a deterministic word (splitmix64 finalizer) that depends on both, so a
// page shared at the wrong offset or a COW copy that lost data produces a
// different sequence digest instead of silently passing.
func kvWord(tok int32, pos int) uint64 {
	x := uint64(uint32(tok))<<32 | uint64(uint32(pos))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// chainMix folds one token into a running chain hash.
func chainMix(h uint64, tok int32) uint64 {
	h ^= uint64(uint32(tok)) + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h ^= h >> 29
	h *= 0xff51afd7ed558ccd
	return h ^ h>>32
}

// NewSequence builds a sequence over prompt, sharing every full prompt block
// the prefix index already holds and allocating fresh pages for the rest.
// On ErrNoPages nothing is held: partially acquired pages are rolled back.
func (m *Manager) NewSequence(tenant string, prompt []int32) (*Sequence, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("kvcache: empty prompt")
	}
	m.mu.Lock()
	defer m.mu.Unlock()

	m.nextSeq++
	s := &Sequence{id: m.nextSeq, tenant: tenant}
	q := m.cfg.TokensPerPage
	pos := 0
	for pos < len(prompt) {
		blk := prompt[pos:]
		if len(blk) > q {
			blk = blk[:q]
		}
		full := len(blk) == q
		var chain uint64
		if full {
			chain = s.chain
			for _, t := range blk {
				chain = chainMix(chain, t)
			}
		}
		if full && !m.cfg.DisableSharing {
			if id, ok := m.lookupLocked(chain, blk); ok {
				m.refLocked(id)
				s.pages = append(s.pages, id)
				s.chain = chain
				s.length += q
				s.reused += q
				m.stats.PrefixHits++
				m.stats.PrefixHitTokens += int64(q)
				m.stats.SavedBytes += m.PageBytes()
				m.foldDigestLocked(s, id)
				pos += q
				continue
			}
			if _, was := m.evicted[chain]; was {
				// This very block used to be resident: its recompute is
				// the price of the eviction that reclaimed it.
				m.stats.RecomputedBytes += m.PageBytes()
			}
		}
		id, err := m.allocLocked()
		if err != nil {
			m.rollbackLocked(s)
			return nil, err
		}
		p := &m.pages[id]
		for i, t := range blk {
			p.tokens = append(p.tokens, t)
			p.data = append(p.data, kvWord(t, s.length+i))
		}
		p.n = len(blk)
		if full {
			m.sealLocked(id, chain)
		}
		s.pages = append(s.pages, id)
		s.length += len(blk)
		if full {
			s.chain = chain
		}
		m.foldDigestLocked(s, id)
		pos += len(blk)
	}
	m.seqs++
	m.stats.Sequences = m.seqs
	return s, nil
}

// Append adds one generated token to the sequence, allocating a fresh page
// at page boundaries and copying a shared tail page first (COW).
func (m *Manager) Append(s *Sequence, tok int32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.dead {
		panic(fmt.Sprintf("kvcache: append to released sequence %d", s.id))
	}
	q := m.cfg.TokensPerPage
	if s.length%q == 0 {
		// Boundary: the previous page (if any) is full and already sealed;
		// start a fresh private page.
		id, err := m.allocLocked()
		if err != nil {
			return err
		}
		s.pages = append(s.pages, id)
	} else {
		last := s.pages[len(s.pages)-1]
		if m.pages[last].refs > 1 {
			// Divergence on a shared tail (forked branches): copy first.
			id, err := m.allocLocked()
			if err != nil {
				return err
			}
			src, dst := &m.pages[last], &m.pages[id]
			dst.tokens = append(dst.tokens, src.tokens...)
			dst.data = append(dst.data, src.data...)
			dst.n = src.n
			m.stats.COWCopies++
			m.stats.CopiedBytes += int64(src.n) * BytesPerToken
			m.unrefLocked(last)
			s.pages[len(s.pages)-1] = id
		}
	}
	id := s.pages[len(s.pages)-1]
	p := &m.pages[id]
	p.tokens = append(p.tokens, tok)
	p.data = append(p.data, kvWord(tok, s.length))
	p.n++
	s.length++
	s.digest ^= rotl(p.data[p.n-1], uint(s.ndigest%63)+1)
	s.ndigest++
	if p.n == q {
		s.chain = sealChain(s.chain, p.tokens)
		if !m.cfg.DisableSharing {
			m.sealLocked(id, s.chain)
		}
	}
	return nil
}

// Fork clones a sequence for parallel sampling: every page — including the
// partial tail — is shared by reference, so the clone costs zero pages until
// the branches diverge and COW splits the tail.
func (m *Manager) Fork(s *Sequence) *Sequence {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.dead {
		panic(fmt.Sprintf("kvcache: fork of released sequence %d", s.id))
	}
	m.nextSeq++
	c := &Sequence{
		id: m.nextSeq, tenant: s.tenant,
		pages:  append([]PageID(nil), s.pages...),
		length: s.length, reused: s.reused, chain: s.chain,
		digest: s.digest, ndigest: s.ndigest,
	}
	for _, id := range c.pages {
		m.refLocked(id)
	}
	m.seqs++
	m.stats.Sequences = m.seqs
	return c
}

// Release drops the sequence's references. Sealed pages reaching refcount
// zero are retained in the cached LRU for future prefix hits (unless sharing
// is disabled); everything else is freed. Releasing twice panics — page
// lifetime bugs must surface at the cause, as in the graphrt arena.
func (m *Manager) Release(s *Sequence) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s.dead {
		panic(fmt.Sprintf("kvcache: double release of sequence %d", s.id))
	}
	s.dead = true
	for _, id := range s.pages {
		m.unrefLocked(id)
	}
	s.pages = nil
	m.seqs--
	m.stats.Sequences = m.seqs
}

// Digest returns the running fold of every KV word the sequence holds, in
// position order — the value decode outputs are derived from, and the value
// the bitwise sharing-on/off equality tests compare.
func (m *Manager) Digest(s *Sequence) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return s.digest
}

// KV returns a copy of the sequence's full simulated KV contents (tests).
func (m *Manager) KV(s *Sequence) []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, s.length)
	for _, id := range s.pages {
		p := &m.pages[id]
		out = append(out, p.data[:p.n]...)
	}
	return out
}

// Stats snapshots the accounting.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stats
	st.FreePages = len(m.free)
	st.ActivePages = m.active
	st.CachedPages = m.cached
	return st
}

// CheckInvariants verifies the arena's books: every page is exactly one of
// free, cached, or referenced; refcounts are non-negative; the index holds
// only sealed pages; the running active and cached counts equal a full
// scan; every onFree flag matches the free list; and the cached list is a
// well-formed chain through exactly the cached pages. It returns the first
// violation found (tests and the chaos harness call it after every
// scenario).
func (m *Manager) CheckInvariants() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	onFree := make(map[PageID]bool, len(m.free))
	for _, id := range m.free {
		if onFree[id] {
			return fmt.Errorf("kvcache: page %d on free list twice", id)
		}
		onFree[id] = true
	}
	counted, active, cached := 0, 0, 0
	for i := range m.pages {
		p := &m.pages[i]
		id := PageID(i)
		if p.refs > 0 {
			active++
		}
		if p.cached {
			cached++
		}
		switch {
		case p.onFree != onFree[id]:
			return fmt.Errorf("kvcache: page %d onFree=%v but on free list=%v", id, p.onFree, onFree[id])
		case p.refs < 0:
			return fmt.Errorf("kvcache: page %d refcount %d < 0", id, p.refs)
		case p.onFree && (p.refs > 0 || p.cached):
			return fmt.Errorf("kvcache: page %d free but refs=%d cached=%v", id, p.refs, p.cached)
		case p.cached && p.refs != 0:
			return fmt.Errorf("kvcache: page %d cached with refs=%d", id, p.refs)
		case p.refs == 0 && !p.cached && !p.onFree:
			return fmt.Errorf("kvcache: page %d leaked (refs=0, not cached, not free)", id)
		}
		if p.onFree {
			counted++
		}
	}
	if counted != len(m.free) {
		return fmt.Errorf("kvcache: free list references %d distinct pages, holds %d", counted, len(m.free))
	}
	if active != m.active || cached != m.cached {
		return fmt.Errorf("kvcache: counted %d active and %d cached pages, scan finds %d and %d",
			m.active, m.cached, active, cached)
	}
	for h, ids := range m.index {
		for _, id := range ids {
			p := &m.pages[id]
			if !p.sealed || p.hash != h {
				return fmt.Errorf("kvcache: index[%x] holds page %d sealed=%v hash=%x", h, id, p.sealed, p.hash)
			}
		}
	}
	return m.checkCachedListLocked()
}

// checkCachedListLocked walks the cached list from its head: every node is
// a cached page, prev and next links agree, the walk ends at lruTail without
// a cycle, and it visits exactly m.cached pages.
func (m *Manager) checkCachedListLocked() error {
	n, prev := 0, nilPage
	for id := m.lruHead; id != nilPage; id = m.pages[id].next {
		if id < 0 || int(id) >= len(m.pages) {
			return fmt.Errorf("kvcache: cached list links to page %d outside the arena", id)
		}
		if n++; n > m.cached {
			return fmt.Errorf("kvcache: cached list is longer than %d cached pages (a cycle?)", m.cached)
		}
		p := &m.pages[id]
		if !p.cached {
			return fmt.Errorf("kvcache: page %d on the cached list is not cached", id)
		}
		if p.prev != prev {
			return fmt.Errorf("kvcache: page %d prev=%d, list reached it from %d", id, p.prev, prev)
		}
		prev = id
	}
	if prev != m.lruTail {
		return fmt.Errorf("kvcache: cached list ends at page %d, tail is %d", prev, m.lruTail)
	}
	if n != m.cached {
		return fmt.Errorf("kvcache: cached list holds %d pages, %d are cached", n, m.cached)
	}
	return nil
}

// Quiescent returns an error if any page is still referenced or any
// sequence is still live — the KV-leak assertion the chaos harness runs
// after every scenario drains.
func (m *Manager) Quiescent() error {
	if err := m.CheckInvariants(); err != nil {
		return err
	}
	st := m.Stats()
	if st.ActivePages != 0 || st.Sequences != 0 {
		return fmt.Errorf("kvcache: not quiescent: %d active pages, %d live sequences", st.ActivePages, st.Sequences)
	}
	return nil
}

// ---- internals (callers hold m.mu) ----

func sealChain(chain uint64, tokens []int32) uint64 {
	for _, t := range tokens {
		chain = chainMix(chain, t)
	}
	return chain
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// foldDigestLocked folds a freshly attached page's words into the digest.
func (m *Manager) foldDigestLocked(s *Sequence, id PageID) {
	p := &m.pages[id]
	for i := 0; i < p.n; i++ {
		s.digest ^= rotl(p.data[i], uint(s.ndigest%63)+1)
		s.ndigest++
	}
}

// lookupLocked finds a sealed page for (chain, tokens); refLocked revives it
// if it is cached.
func (m *Manager) lookupLocked(chain uint64, blk []int32) (PageID, bool) {
	for _, id := range m.index[chain] {
		p := &m.pages[id]
		if p.n != len(blk) {
			continue
		}
		match := true
		for i, t := range blk {
			if p.tokens[i] != t {
				match = false
				break
			}
		}
		if match {
			return id, true
		}
	}
	return 0, false
}

func (m *Manager) refLocked(id PageID) {
	p := &m.pages[id]
	if p.cached {
		m.uncacheLocked(id)
		m.stats.Revived++
	}
	if p.refs == 0 {
		m.active++
	}
	p.refs++
}

// unrefLocked drops one reference; at zero the page is cached (sealed,
// sharing on) or freed.
func (m *Manager) unrefLocked(id PageID) {
	p := &m.pages[id]
	if p.refs <= 0 {
		panic(fmt.Sprintf("kvcache: page %d refcount underflow (refs=%d)", id, p.refs))
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	m.active--
	if p.sealed && !m.cfg.DisableSharing {
		m.cacheLocked(id)
		return
	}
	m.freeLocked(id)
}

// cacheLocked appends a page to the tail of the cached list.
func (m *Manager) cacheLocked(id PageID) {
	p := &m.pages[id]
	p.cached = true
	p.prev, p.next = m.lruTail, nilPage
	if m.lruTail == nilPage {
		m.lruHead = id
	} else {
		m.pages[m.lruTail].next = id
	}
	m.lruTail = id
	m.cached++
}

// uncacheLocked unlinks a cached page from the cached list.
func (m *Manager) uncacheLocked(id PageID) {
	p := &m.pages[id]
	if p.prev == nilPage {
		m.lruHead = p.next
	} else {
		m.pages[p.prev].next = p.next
	}
	if p.next == nilPage {
		m.lruTail = p.prev
	} else {
		m.pages[p.next].prev = p.prev
	}
	p.cached = false
	p.prev, p.next = nilPage, nilPage
	m.cached--
}

// allocLocked pops a free page, evicting the oldest cached page when the
// free list is empty. The returned page is reset.
func (m *Manager) allocLocked() (PageID, error) {
	if len(m.free) == 0 && !m.evictOneLocked() {
		m.stats.FailedAllocs++
		return 0, ErrNoPages
	}
	id := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	p := &m.pages[id]
	p.onFree = false
	p.refs = 1
	m.active++
	p.n = 0
	p.tokens = p.tokens[:0]
	p.data = p.data[:0]
	p.sealed = false
	p.hash = 0
	m.stats.Allocs++
	return id, nil
}

// evictOneLocked reclaims the least-recently-used cached page — the head of
// the cached list — recording its hash in the evicted ledger so a later
// miss on it is accounted as recomputed bytes.
func (m *Manager) evictOneLocked() bool {
	victim := m.lruHead
	if victim == nilPage {
		return false
	}
	h := m.pages[victim].hash
	m.stats.Evictions++
	if _, dup := m.evicted[h]; !dup {
		m.evicted[h] = struct{}{}
		if len(m.evictedFIFO) < evictedLedger {
			m.evictedFIFO = append(m.evictedFIFO, h)
		} else {
			delete(m.evicted, m.evictedFIFO[m.evictedNext])
			m.evictedFIFO[m.evictedNext] = h
			m.evictedNext = (m.evictedNext + 1) % evictedLedger
		}
	}
	m.uncacheLocked(victim)
	m.freeLocked(victim)
	return true
}

// freeLocked returns a page to the free list, removing it from the index if
// sealed. Freeing a referenced or already-free page panics.
func (m *Manager) freeLocked(id PageID) {
	p := &m.pages[id]
	if p.refs != 0 {
		panic(fmt.Sprintf("kvcache: freeing page %d with refs=%d", id, p.refs))
	}
	if p.sealed {
		ids := m.index[p.hash]
		for i, x := range ids {
			if x == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(m.index, p.hash)
		} else {
			m.index[p.hash] = ids
		}
		p.sealed = false
	}
	if p.onFree {
		panic(fmt.Sprintf("kvcache: page %d freed twice", id))
	}
	p.onFree = true
	m.free = append(m.free, id)
	m.stats.Frees++
}

// sealLocked marks a full page immutable and registers it for sharing.
func (m *Manager) sealLocked(id PageID, chain uint64) {
	p := &m.pages[id]
	p.sealed = true
	p.hash = chain
	m.index[chain] = append(m.index[chain], id)
}

// rollbackLocked undoes a partially built sequence after an allocation
// failure, leaving the arena exactly as found.
func (m *Manager) rollbackLocked(s *Sequence) {
	for _, id := range s.pages {
		m.unrefLocked(id)
	}
	s.pages = nil
	s.length = 0
	s.reused = 0
}
