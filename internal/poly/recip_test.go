package poly

import (
	"math"
	"testing"
)

// maxSweptDivisor bounds the divisors TestDivrMatchesDivision sweeps: every
// tile edge the tuner produces (multiples of 16 up to 256 on both devices)
// and every PE count a degraded view of either device can have (1–108).
const maxSweptDivisor = 512

// TestDivrMatchesDivision: for every divisor the planner can see — each d up
// to maxSweptDivisor, d = 1 among them, plus every tile edge of the test
// libraries — divr by recip(d) equals / over every dividend below 2¹⁶ and over
// the 2¹⁶ dividends just below 2³², the top of the range divides admits.
func TestDivrMatchesDivision(t *testing.T) {
	divisors := map[int]bool{}
	for d := 1; d <= maxSweptDivisor; d++ {
		divisors[d] = true
	}
	for _, lib := range equivalenceLibraries(t) {
		for _, k := range lib.Kernels {
			divisors[k.UM], divisors[k.UN] = true, true
		}
		divisors[lib.HW.NumPEs] = true
	}
	if recip(1) != 0 {
		t.Fatalf("recip(1) = %#x, want the wrapped 0 divr treats as the identity", recip(1))
	}
	for d := range divisors {
		r, ud := recip(d), uint64(d)
		for _, lo := range []uint64{0, 1<<32 - 1<<16} {
			for x := lo; x < lo+1<<16; x++ {
				if q := divr(x, r); q != x/ud {
					t.Fatalf("divr(%d, recip(%d)) = %d, want %d", x, d, q, x/ud)
				}
			}
		}
	}
}

// TestReciprocalWavesGuard: divides admits a region only when every dividend
// of its wave count stays below 2³², and there waves reproduces WaveCount for
// every tile class, up to the edge of the cap. The 2³³-extent shapes (which
// overflowed an earlier 32-bit shortcut) and the cost models other than
// CostFull take the WaveCount fallback.
func TestReciprocalWavesGuard(t *testing.T) {
	sc := getScratch()
	defer putScratch(sc)
	for _, lib := range equivalenceLibraries(t) {
		p := NewPlanner(lib)
		p.prepare(sc, 64)
		pes := lib.HW.NumPEs
		for _, g := range [][2]int{{1<<33 + 5, 3}, {48, 1<<33 + 77}, {1 << 32, 1}, {1 << 16, 1 << 16}} {
			if sc.divides(g[0], g[1]) {
				t.Fatalf("%s: divides admits the %dx%d region", lib.HW.Name, g[0], g[1])
			}
		}
		capMN := int(sc.divCap)
		for _, g := range [][2]int{{1, capMN}, {capMN, 1}, {1 << 15, capMN >> 15}, {65521, capMN / 65521}, {1, 1}} {
			m, n := g[0], g[1]
			if !sc.divides(m, n) {
				t.Fatalf("%s: divides rejects the %dx%d region under the cap %d", lib.HW.Name, m, n, capMN)
			}
			for i := range sc.classes {
				cl := &sc.classes[i]
				want := WaveCount(((m+cl.um-1)/cl.um)*((n+cl.un-1)/cl.un), pes)
				if got := sc.waves(cl, m, n); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: %dx%d region in %dx%d tiles: waves %g, WaveCount %g", lib.HW.Name, m, n, cl.um, cl.un, got, want)
				}
			}
		}
		for _, g := range [][2]int{{1, capMN + 1}, {capMN + 1, 1}, {1 << 15, capMN>>15 + 1}, {65521, capMN/65521 + 1}} {
			if sc.divides(g[0], g[1]) {
				t.Fatalf("%s: divides admits the %dx%d region over the cap %d", lib.HW.Name, g[0], g[1], capMN)
			}
		}
		for _, c := range []CostModel{CostWaveOnly, CostPipeOnly} {
			q := *p
			q.Cost = c
			q.prepare(sc, 64)
			if sc.divides(1, 1) {
				t.Fatalf("%s cost=%s: divides admits a region", lib.HW.Name, c)
			}
		}
	}
}
