package kvcache

import (
	"fmt"
	"sync"
	"testing"
)

func prompt(seed int64, n int) []int32 {
	out := make([]int32, n)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for i := range out {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		out[i] = int32(x * 0x2545f4914f6cdd1d & 0x7fff)
	}
	return out
}

func mustSeq(t *testing.T, m *Manager, tenant string, p []int32) *Sequence {
	t.Helper()
	s, err := m.NewSequence(tenant, p)
	if err != nil {
		t.Fatalf("NewSequence: %v", err)
	}
	return s
}

func checkOK(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The KV words a sequence holds must be exactly kvWord(token, position) —
// whether the pages came from fresh allocation, a prefix hit, or a COW copy.
func wantKV(p []int32, extra []int32) []uint64 {
	all := append(append([]int32(nil), p...), extra...)
	out := make([]uint64, len(all))
	for i, tok := range all {
		out[i] = kvWord(tok, i)
	}
	return out
}

func eqKV(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPrefixReuseSharesPages(t *testing.T) {
	m := New(Config{NumPages: 64, TokensPerPage: 8})
	shared := prompt(1, 32) // 4 full pages
	a := mustSeq(t, m, "t0", shared)
	if a.Reused() != 0 {
		t.Fatalf("first sequence reused %d tokens", a.Reused())
	}
	// Same prompt plus a divergent tail: all 4 full blocks must hit.
	b := mustSeq(t, m, "t0", append(append([]int32(nil), shared...), 99, 98, 97))
	if b.Reused() != 32 {
		t.Fatalf("reused = %d, want 32", b.Reused())
	}
	st := m.Stats()
	if st.PrefixHits != 4 || st.PrefixHitTokens != 32 {
		t.Fatalf("hits=%d tokens=%d, want 4/32", st.PrefixHits, st.PrefixHitTokens)
	}
	if want := 4 * m.PageBytes(); st.SavedBytes != want {
		t.Fatalf("SavedBytes=%d want %d", st.SavedBytes, want)
	}
	// Shared pages are counted once.
	if st.ActivePages != 4+1 /* b's tail */ +4-4 {
		// a holds 4, b shares those 4 and adds 1 partial tail.
		t.Fatalf("ActivePages=%d want 5", st.ActivePages)
	}
	if got := m.KV(b); !eqKV(got, wantKV(shared, []int32{99, 98, 97})) {
		t.Fatal("shared-prefix KV contents differ from recomputed contents")
	}
	checkOK(t, m)
	m.Release(a)
	m.Release(b)
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// A misaligned prefix (same tokens, different absolute positions) must not
// share: the chain hash encodes the full history from position zero.
func TestNoMisalignedSharing(t *testing.T) {
	m := New(Config{NumPages: 64, TokensPerPage: 8})
	base := prompt(2, 24)
	a := mustSeq(t, m, "t", base)
	shifted := append([]int32{7}, base...) // same tokens one position later
	b := mustSeq(t, m, "t", shifted)
	if b.Reused() != 0 {
		t.Fatalf("misaligned prompt reused %d tokens", b.Reused())
	}
	if got := m.KV(b); !eqKV(got, wantKV(shifted, nil)) {
		t.Fatal("misaligned KV contents wrong")
	}
	m.Release(a)
	m.Release(b)
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// Fork + divergent appends: COW must split the tail, and both branches'
// full KV contents must be bitwise-identical to independent recomputation.
func TestForkCOWBitwiseEqual(t *testing.T) {
	m := New(Config{NumPages: 64, TokensPerPage: 8})
	p := prompt(3, 20) // 2 full pages + 4-token tail
	a := mustSeq(t, m, "t", p)
	b := m.Fork(a)
	before := m.Stats()
	if err := m.Append(a, 111); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(b, 222); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.COWCopies-before.COWCopies != 1 {
		t.Fatalf("COW copies = %d, want exactly 1 (first divergent append)", st.COWCopies-before.COWCopies)
	}
	if want := int64(4) * BytesPerToken; st.CopiedBytes-before.CopiedBytes != want {
		t.Fatalf("CopiedBytes=%d want %d", st.CopiedBytes-before.CopiedBytes, want)
	}
	if got := m.KV(a); !eqKV(got, wantKV(p, []int32{111})) {
		t.Fatal("branch a KV contents wrong after COW")
	}
	if got := m.KV(b); !eqKV(got, wantKV(p, []int32{222})) {
		t.Fatal("branch b KV contents wrong after COW")
	}
	checkOK(t, m)
	m.Release(a)
	m.Release(b)
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// Sharing on vs off must produce bitwise-identical KV contents and digests
// for the same token streams — the subsystem's correctness bar.
func TestSharingOnOffBitwiseEqual(t *testing.T) {
	run := func(disable bool) ([]uint64, []uint64, uint64, uint64) {
		m := New(Config{NumPages: 256, TokensPerPage: 16, DisableSharing: disable})
		shared := prompt(4, 40)
		a := mustSeq(t, m, "t", shared)
		b := mustSeq(t, m, "t", append(append([]int32(nil), shared...), 5, 6))
		for i := int32(0); i < 30; i++ {
			if err := m.Append(a, 1000+i); err != nil {
				t.Fatal(err)
			}
			if err := m.Append(b, 2000+i); err != nil {
				t.Fatal(err)
			}
		}
		return m.KV(a), m.KV(b), m.Digest(a), m.Digest(b)
	}
	ka1, kb1, da1, db1 := run(false)
	ka2, kb2, da2, db2 := run(true)
	if !eqKV(ka1, ka2) || !eqKV(kb1, kb2) {
		t.Fatal("KV contents differ between sharing on and off")
	}
	if da1 != da2 || db1 != db2 {
		t.Fatalf("digests differ: on=%x/%x off=%x/%x", da1, db1, da2, db2)
	}
}

// Released prefixes are retained and revived; when the arena fills, cached
// pages are evicted LRU-first and a re-miss is charged as recomputed bytes.
func TestEvictionAccounting(t *testing.T) {
	m := New(Config{NumPages: 8, TokensPerPage: 8})
	p := prompt(5, 32) // 4 pages
	a := mustSeq(t, m, "t", p)
	m.Release(a)
	st := m.Stats()
	if st.CachedPages != 4 || st.ActivePages != 0 {
		t.Fatalf("cached=%d active=%d after release, want 4/0", st.CachedPages, st.ActivePages)
	}
	// Revival: same prompt hits all 4 cached pages.
	b := mustSeq(t, m, "t", p)
	st = m.Stats()
	if b.Reused() != 32 || st.Revived < 4 {
		t.Fatalf("reused=%d revived=%d, want 32/>=4", b.Reused(), st.Revived)
	}
	m.Release(b)
	// Now flood the arena with distinct prompts so the cached prefix is
	// evicted, then re-present the original prompt: zero reuse, and the
	// recompute is charged to the eviction ledger.
	for i := 0; i < 4; i++ {
		c := mustSeq(t, m, "t", prompt(int64(100+i), 16))
		m.Release(c)
	}
	d := mustSeq(t, m, "t", prompt(int64(200), 64)) // needs all 8 pages
	if d.Reused() != 0 {
		t.Fatalf("unexpected reuse %d", d.Reused())
	}
	st = m.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions when the arena filled")
	}
	m.Release(d)
	e := mustSeq(t, m, "t", p) // original prompt: evicted → recomputed
	if e.Reused() != 0 {
		t.Fatalf("reused=%d after eviction, want 0", e.Reused())
	}
	st = m.Stats()
	if want := 4 * m.PageBytes(); st.RecomputedBytes < want {
		t.Fatalf("RecomputedBytes=%d, want >= %d (4 evicted blocks re-missed)", st.RecomputedBytes, want)
	}
	m.Release(e)
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

// Exhaustion with nothing evictable returns ErrNoPages and rolls back
// cleanly — the partially built sequence holds nothing.
func TestExhaustionRollback(t *testing.T) {
	m := New(Config{NumPages: 4, TokensPerPage: 8})
	a := mustSeq(t, m, "t", prompt(6, 24)) // 3 pages
	if _, err := m.NewSequence("t", prompt(7, 24)); err != ErrNoPages {
		t.Fatalf("err = %v, want ErrNoPages", err)
	}
	st := m.Stats()
	if st.FailedAllocs == 0 {
		t.Fatal("FailedAllocs not counted")
	}
	if st.ActivePages != 3 {
		t.Fatalf("rollback leaked: ActivePages=%d want 3", st.ActivePages)
	}
	checkOK(t, m)
	m.Release(a)
	if err := m.Quiescent(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	m := New(Config{NumPages: 8, TokensPerPage: 8})
	s := mustSeq(t, m, "t", prompt(8, 8))
	m.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double release did not panic")
		}
	}()
	m.Release(s)
}

// Fragmentation churn under -race: concurrent tenants allocate, fork,
// append, and release sequences of varying lengths against a small arena.
// The books must balance exactly afterward.
func TestFragmentationChurnRace(t *testing.T) {
	m := New(Config{NumPages: 128, TokensPerPage: 8})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				n := 1 + (w*61+i*17)%40
				s, err := m.NewSequence(fmt.Sprintf("t%d", w%3), prompt(int64(w%4*10+i%7), n))
				if err != nil {
					continue // arena momentarily full — fine
				}
				var f *Sequence
				if i%3 == 0 {
					f = m.Fork(s)
				}
				for j := 0; j < i%5; j++ {
					_ = m.Append(s, int32(j))
					if f != nil {
						_ = m.Append(f, int32(100+j))
					}
				}
				if f != nil {
					m.Release(f)
				}
				m.Release(s)
			}
		}(w)
	}
	wg.Wait()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.ActivePages != 0 || st.Sequences != 0 {
		t.Fatalf("leak after churn: active=%d seqs=%d", st.ActivePages, st.Sequences)
	}
	if st.Allocs-st.Frees != int64(st.CachedPages) {
		t.Fatalf("books don't balance: allocs=%d frees=%d cached=%d",
			st.Allocs, st.Frees, st.CachedPages)
	}
}

// BenchmarkStats reads the accounting of an arena holding active and cached
// pages. The scheduler calls Stats on every wave, so its cost must not grow
// with the arena: the 65 536-page case should match the 2 048-page one.
func BenchmarkStats(b *testing.B) {
	for _, pages := range []int{2048, 65536} {
		b.Run(fmt.Sprintf("pages=%d", pages), func(b *testing.B) {
			m := New(Config{NumPages: pages, TokensPerPage: 16})
			held, err := m.NewSequence("t", prompt(1, 16*pages/4))
			if err != nil {
				b.Fatal(err)
			}
			released, err := m.NewSequence("t", prompt(2, 16*pages/4))
			if err != nil {
				b.Fatal(err)
			}
			m.Release(released)
			if st := m.Stats(); st.ActivePages == 0 || st.CachedPages == 0 {
				b.Fatalf("arena not mixed: %+v", st)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = m.Stats()
			}
			b.StopTimer()
			m.Release(held)
		})
	}
}
