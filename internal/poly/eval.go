package poly

import (
	"math"
	"math/bits"
	"sync"

	"mikpoly/internal/tensor"
)

// scratch holds the per-plan tables of the search. The strategy space is a
// hierarchy — pattern → tile class → boundary → anchor — and each level's work
// is done once: per plan the pipe table and the kernel front, per region
// extent one memoized front argmin, per (pattern, tile class) one priced
// boundary enumeration, so that an anchor's candidate costs a multiply and up
// to three adds. Every level reproduces the flat search in reference_test.go
// bit for bit.
//
// Plans may run concurrently on one Planner (the compiler's singleflight
// dedupes per shape, not globally), so scratch lives in a pool rather than on
// the Planner. The pool loses entries to every collection: the tables are
// sized from the library and pattern set in a few blocks and kept small, so a
// fresh scratch stays cheap.
type scratch struct {
	strips []chainStrip

	pipe    []float64   // f_pipe of every kernel at this plan's K
	idx     []int32     // backing store of front and class
	front   []int32     // kernels that can win a region argmin, ascending
	class   []int32     // tile class of every kernel
	classes []tileClass // one per distinct (UM, UN) in the library
	memo    []argminSlot
}

// chainStrip memoizes one kernel's fused strip-task cycles within a chain
// plan (the fused analog of the pipe table, lazily filled because the
// hardware bound prunes most kernels before they are ever priced).
type chainStrip struct {
	cycles float64
	done   bool
}

// chainStrips returns a reset n-entry strip memo from pooled storage.
func (sc *scratch) chainStrips(n int) []chainStrip {
	if cap(sc.strips) < n {
		sc.strips = make([]chainStrip, n)
	}
	sc.strips = sc.strips[:n]
	for i := range sc.strips {
		sc.strips[i] = chainStrip{}
	}
	return sc.strips
}

// tileClass is the set of library kernels sharing one output tile. Boundary
// geometry and the primary region's wave count depend on the anchor only
// through (UM, UN), so the candidates of a pattern are priced once per class:
// vals parallels boundarySet.rects — for candidate i, vals[end[i-1]] is the
// primary region's wave count and the rest are the remainder regions' argmin
// costs in region order.
type tileClass struct {
	um, un int
	pat    PatternID // pattern vals is priced for; 0 = none yet this plan
	n      int
	end    [maxSplits]uint8
	vals   [maxSplits * maxRegions]float64
}

// argminSlot memoizes min_i cost(i, (m, n)) for one plan; m == 0 marks a free
// slot (extents are positive).
type argminSlot struct {
	m, n uint32
	cost float64
}

const (
	// argminSlotsPerClass sizes the open-addressed region-argmin table: this
	// many slots per (pattern, tile class), rounded up to a power of two. A
	// nine-pattern plan on the 40-kernel, 12-class Ascend library sees ≈ 360
	// distinct extents, 3.4 per (pattern, class).
	argminSlotsPerClass = 4
	// maxArgminSlots caps the table (8 KiB): the pool re-allocates it after
	// collections and every plan clears it.
	maxArgminSlots = 512
	// argminProbes caps a probe sequence so a full table cannot spin: past
	// the cap the argmin is computed directly and not stored.
	argminProbes = 8
)

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// prepare readies sc for one plan at reduction extent K: the pipe table, the
// tile classes, the kernel front and an empty memo.
func (p *Planner) prepare(sc *scratch, K int) {
	ks := p.Lib.Kernels
	nk := len(ks)
	if cap(sc.pipe) < nk {
		sc.pipe = make([]float64, nk)
		sc.idx = make([]int32, 2*nk)
	}
	sc.pipe = sc.pipe[:nk]
	sc.front, sc.class = sc.idx[:0:nk], sc.idx[nk:2*nk]

	// pipe[i] = g_predict(K̃_i, ceil(K / uK_i)). Output-plane patterns never
	// slice K, so the pipelined-task cost of every kernel is a per-plan
	// constant.
	for i := range ks {
		sc.pipe[i] = p.Lib.PredictAt(i, (K+ks[i].UK-1)/ks[i].UK)
	}

	// Tile classes, numbered by first appearance.
	nc := 0
	for i := range ks {
		j := 0
		for j < i && (ks[j].UM != ks[i].UM || ks[j].UN != ks[i].UN) {
			j++
		}
		if j < i {
			sc.class[i] = sc.class[j]
		} else {
			sc.class[i] = int32(nc)
			nc++
		}
	}
	if cap(sc.classes) < nc {
		sc.classes = make([]tileClass, nc)
	}
	sc.classes = sc.classes[:nc]
	for i := range ks {
		cl := &sc.classes[sc.class[i]]
		cl.um, cl.un, cl.pat = ks[i].UM, ks[i].UN, 0
	}

	for j := range ks {
		if !p.neverWins(sc.pipe, j) {
			sc.front = append(sc.front, int32(j))
		}
	}

	slots := min(maxArgminSlots, 1<<bits.Len(uint(argminSlotsPerClass*nc*len(p.patterns()))))
	if cap(sc.memo) < slots {
		sc.memo = make([]argminSlot, slots)
	}
	sc.memo = sc.memo[:slots]
	clear(sc.memo)
}

// pipeCeil bounds the f_pipe values the strict rule of neverWins trusts: below
// it waves × pipe cannot overflow, so a smaller factor gives a smaller product.
const pipeCeil = 1e280

// neverWins reports whether kernel j can be left out of every region argmin of
// this plan without changing any argmin's cost bits or chosen index. The
// argmin keeps the first strict minimum in index order, so j is redundant if
// some kernel i whose tile covers j's (no more tiles, hence no more waves) is
//
//   - earlier and never worse: pipe[i] <= pipe[j]; multiplying by a
//     non-negative factor is monotone, so cost_i <= cost_j and i wins the tie;
//   - or later and strictly better: pipe[i] below pipe[j] by a margin (1e-9)
//     far above rounding, so cost_i < cost_j after rounding too. Not under
//     CostWaveOnly, where equal wave counts tie and the earlier j would win.
//
// The first index attaining a region's minimum satisfies neither rule, so it
// is always kept.
func (p *Planner) neverWins(pipe []float64, j int) bool {
	ks := p.Lib.Kernels
	for i := range ks {
		if i == j || ks[i].UM < ks[j].UM || ks[i].UN < ks[j].UN || !(pipe[i] >= 0) {
			continue
		}
		if i < j && pipe[i] <= pipe[j] {
			return true
		}
		if i > j && p.Cost != CostWaveOnly && pipe[i] < pipe[j]*(1-1e-9) && pipe[j] < pipeCeil {
			return true
		}
	}
	return false
}

// kernelRegionCost evaluates one (R_i, K̃_i) term of Eq. 2 under the active
// cost model for an (m, n) region served by kernel i: f_wave =
// WaveCount(f_parallel, |P_multi|), f_pipe from the plan's pipe table.
func (p *Planner) kernelRegionCost(pipe []float64, i, m, n int) float64 {
	k := &p.Lib.Kernels[i]
	t1 := (m + k.UM - 1) / k.UM
	t2 := (n + k.UN - 1) / k.UN
	waves := WaveCount(t1*t2, p.Lib.HW.NumPEs)
	switch p.Cost {
	case CostWaveOnly:
		return waves
	case CostPipeOnly:
		return pipe[i]
	default:
		return waves * pipe[i]
	}
}

// frontArgmin picks the library kernel minimizing the cost of an (m, n)
// region — exact for Eq. 2 because region terms are independent given
// boundaries. Scanning the front gives the same cost bits and the same index
// as scanning the whole library (see neverWins).
func (p *Planner) frontArgmin(sc *scratch, m, n int) (float64, int) {
	best, arg := math.Inf(1), 0
	for _, i := range sc.front {
		if c := p.kernelRegionCost(sc.pipe, int(i), m, n); c < best {
			best, arg = c, int(i)
		}
	}
	return best, arg
}

// regionArgmin is frontArgmin's cost behind the per-plan memo: the same
// remainder extents recur across boundaries, tile classes and patterns.
func (p *Planner) regionArgmin(sc *scratch, m, n int) float64 {
	var free *argminSlot
	if uint64(m|n) <= math.MaxUint32 { // the slots key extents in 32 bits
		mask := uint32(len(sc.memo) - 1)
		h := uint32(m)*0x9E3779B1 + uint32(n)*0x85EBCA77
		h ^= h >> 15
		for probe := uint32(0); probe < argminProbes; probe++ {
			s := &sc.memo[(h+probe)&mask]
			if s.m == uint32(m) && s.n == uint32(n) {
				return s.cost
			}
			if s.m == 0 {
				free = s
				break
			}
		}
	}
	cost, _ := p.frontArgmin(sc, m, n)
	if free != nil {
		*free = argminSlot{m: uint32(m), n: uint32(n), cost: cost}
	}
	return cost
}

// price fills cl with pattern pat's candidates for the shape: everything a
// candidate's cost needs except the anchor's own f_pipe. Under CostPipeOnly
// the primary term is the anchor's pipe alone, so its wave factor is 1
// (x·1 is exact).
func (p *Planner) price(sc *scratch, bs *boundarySet, cl *tileClass, pat PatternID, shape tensor.GemmShape) {
	pes := p.Lib.HW.NumPEs
	bs.enumerate(pat, shape.M, shape.N, cl.um, cl.un, pes)
	cl.pat, cl.n, cl.end = pat, bs.n, bs.end
	lo := 0
	for _, end := range bs.end[:bs.n] {
		g := bs.rects[lo]
		cl.vals[lo] = 1
		if p.Cost != CostPipeOnly {
			cl.vals[lo] = WaveCount(((g.m+cl.um-1)/cl.um)*((g.n+cl.un-1)/cl.un), pes)
		}
		for j := lo + 1; j < int(end); j++ {
			cl.vals[j] = p.regionArgmin(sc, bs.rects[j].m, bs.rects[j].n)
		}
		lo = int(end)
	}
}

// winner identifies the cheapest candidate seen so far by its enumeration
// coordinates, so the search can defer program construction until the argmin
// is final. For PatternSplitK, anchorIdx is the kernel index and candIdx the
// split count.
type winner struct {
	valid     bool
	cost      float64
	pat       PatternID
	anchorIdx int
	candIdx   int
}

// buildWinner materializes the winning candidate — the only program
// construction the non-oracle search performs. Its geometry is re-derived
// from the enumerator and its kernels from the same argmin the scoring pass
// used, so the built program is exactly the one that was scored.
func (p *Planner) buildWinner(sc *scratch, shape tensor.GemmShape, win winner) *Program {
	if win.pat == PatternSplitK {
		prog := p.buildSplitK(shape, win.anchorIdx, win.candIdx)
		prog.EstimatedCost = win.cost
		return prog
	}
	a := &p.Lib.Kernels[win.anchorIdx]
	var bs boundarySet
	bs.enumerate(win.pat, shape.M, shape.N, a.UM, a.UN, p.Lib.HW.NumPEs)
	primary := win.anchorIdx
	if win.pat == PatternI {
		primary = -1 // Pattern I has no anchor: its one region takes the argmin
	}
	prog := p.assemble(sc, shape, win.pat, bs.cand(win.candIdx), primary)
	prog.EstimatedCost = win.cost
	return prog
}

// assemble builds the program for one boundary candidate: kernel primary (when
// >= 0) serves the first region, every other region takes its argmin kernel.
func (p *Planner) assemble(sc *scratch, shape tensor.GemmShape, pat PatternID, geoms []rect, primary int) *Program {
	prog := &Program{Shape: shape, Pattern: pat, Regions: make([]Region, 0, len(geoms))}
	for gi, g := range geoms {
		ki := primary
		if gi > 0 || ki < 0 {
			_, ki = p.frontArgmin(sc, g.m, g.n)
		}
		prog.Regions = append(prog.Regions, Region{
			M0: g.m0, N0: g.n0, M: g.m, N: g.n, K: shape.K, Kern: p.Lib.Kernels[ki],
		})
	}
	return prog
}
