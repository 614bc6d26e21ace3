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
// extent one memoized front argmin, per (pattern, tile class) one boundary
// enumeration with lower bounds on its remainder regions, per boundary its
// remainder argmins — paid only when some anchor's bound does not already
// lose — so that an anchor's candidate costs a multiply and up to three adds.
// Every level reproduces the flat search in reference_test.go bit for bit.
//
// Plans may run concurrently on one Planner (the compiler's singleflight
// dedupes per shape, not globally), so scratch lives in a pool rather than on
// the Planner. The pool loses entries to every collection: the tables are
// sized from the library and pattern set in a few blocks and kept small, so a
// fresh scratch stays cheap.
type scratch struct {
	pipe    []float64   // f_pipe of every kernel at this plan's K
	idx     []int32     // backing store of front and class
	front   []int32     // kernels that can win a region argmin, ascending
	class   []int32     // tile class of every kernel
	classes []tileClass // one per distinct (UM, UN) in the library
	memo    []argminSlot

	// Reciprocal division of wave counts (see divides): the cap on m·n,
	// NumPEs and its reciprocal.
	divCap    uint64
	pes, rpes uint64

	// Remainder-region lower bound of this plan, max(floor, m·n·rate); see
	// remainderBound. bounded is false when the bound is off: pruning
	// disabled, or a pipe value the bound cannot trust.
	bounded     bool
	floor, rate float64
}

// tileClass is the set of library kernels sharing one output tile. Boundary
// geometry and the primary region's wave count depend on the anchor only
// through (UM, UN), so the candidates of a pattern are priced once per class:
// vals parallels boundarySet.rects — for candidate i, vals[end[i-1]] is the
// primary region's wave count and the rest are the remainder regions' costs
// in region order: their argmin costs once bit i of priced is set, their
// lower bounds before. ext keeps the remainder extents for pricing them late.
type tileClass struct {
	um, un int
	rm, rn uint64    // reciprocals of um and un (see recip)
	pat    PatternID // pattern vals is priced for; 0 = none yet this plan
	n      int
	priced uint16 // candidates whose remainder argmins are in vals
	end    [maxSplits]uint8
	vals   [maxSplits * maxRegions]float64
	ext    [maxSplits * maxRegions][2]uint32
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
	pes := p.Lib.HW.NumPEs
	addend := pes - 1 // the largest a ceiling division adds to its dividend
	for i := range ks {
		cl := &sc.classes[sc.class[i]]
		cl.um, cl.un, cl.pat = ks[i].UM, ks[i].UN, 0
		cl.rm, cl.rn = recip(cl.um), recip(cl.un)
		addend = max(addend, cl.um-1, cl.un-1)
	}
	sc.pes, sc.rpes = uint64(pes), recip(pes)
	sc.divCap = 0
	if p.Cost == CostFull && addend < 1<<31 {
		sc.divCap = 1<<32 - 1 - uint64(addend)
	}

	for j := range ks {
		if !p.neverWins(sc.pipe, j) {
			sc.front = append(sc.front, int32(j))
		}
	}
	p.prepareBound(sc)

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

// boundMargin absorbs the rounding of computing m·n·rate: a few ulps, far
// below the margin.
const boundMargin = 1 - 1e-9

// prepareBound sets the plan's remainder-region lower bound from the kernel
// front. Under CostFull a region (m, n) served by kernel k costs
// waves·pipe_k with waves ≥ 1 and waves ≥ m·n/(UM_k·UN_k·NumPEs), so its
// argmin costs at least max(pipeMin, m·n·ρ), ρ = min pipe_k/(UM_k·UN_k·NumPEs),
// both over the front (whose argmin is the library's). Under CostWaveOnly the
// cost is a wave count, at least 1; under CostPipeOnly it is some pipe_k, at
// least pipeMin — both exact. The bound is off under DisablePruning and when a
// pipe value is negative, NaN, at least pipeCeil or so close to 0 that ρ would
// lose its relative precision to underflow.
func (p *Planner) prepareBound(sc *scratch) {
	sc.bounded = !p.DisablePruning
	for _, c := range sc.pipe {
		if !(c == 0 || c >= 1/pipeCeil && c < pipeCeil) {
			sc.bounded = false
		}
	}
	pipeMin, rho := math.Inf(1), math.Inf(1)
	for _, i := range sc.front {
		k := &p.Lib.Kernels[i]
		pipeMin = min(pipeMin, sc.pipe[i])
		rho = min(rho, sc.pipe[i]/float64(k.UM*k.UN*p.Lib.HW.NumPEs))
	}
	switch p.Cost {
	case CostWaveOnly:
		sc.floor, sc.rate = 1, 0
	case CostPipeOnly:
		sc.floor, sc.rate = pipeMin, 0
	default:
		sc.floor, sc.rate = pipeMin*boundMargin, rho*boundMargin
	}
}

// remainderBound is a lower bound on regionArgmin(sc, m, n) for this plan.
func (sc *scratch) remainderBound(m, n int) float64 {
	return max(sc.floor, float64(m)*float64(n)*sc.rate)
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

// recip returns the reciprocal r = ⌊(2⁶⁴−1)/d⌋ + 1 = ⌈2⁶⁴/d⌉ of a divisor
// d ≥ 1, with which divr divides by d (Granlund & Montgomery, PLDI 1994). For
// d = 1 it wraps to 0, which divr treats as the identity.
func recip(d int) uint64 { return math.MaxUint64/uint64(d) + 1 }

// divr returns x / d for the reciprocal r = recip(d), exactly whenever x and
// d are below 2³²: with r = (2⁶⁴ + e)/d, 0 ≤ e < d, the high word of x·r is
// ⌊x/d + x·e/(d·2⁶⁴)⌋, and x·e < 2⁶⁴ keeps the error term below the 1/d gap
// between x/d's fraction and the next integer.
func divr(x, r uint64) uint64 {
	if r == 0 {
		return x
	}
	q, _ := bits.Mul64(x, r)
	return q
}

// divides reports whether waves may price an (m, n) region: under CostFull,
// when m·n ≤ divCap, so that every dividend of its wave count — ⌈m/UM⌉·⌈n/UN⌉
// ≤ m·n included — stays below 2³² after its ceiling addend.
func (sc *scratch) divides(m, n int) bool {
	um, un := uint64(m), uint64(n)
	return um|un < 1<<32 && um*un <= sc.divCap
}

// waves is WaveCount(⌈m/UM⌉·⌈n/UN⌉, NumPEs) for cl's tile by reciprocal
// multiplication: the same quotients, hence the same bits. The caller checks
// divides(m, n).
func (sc *scratch) waves(cl *tileClass, m, n int) float64 {
	t1 := divr(uint64(m+cl.um-1), cl.rm)
	t2 := divr(uint64(n+cl.un-1), cl.rn)
	return float64(int64(divr(t1*t2+sc.pes-1, sc.rpes))) // < 2³²: int64 converts in one instruction
}

// frontArgmin picks the library kernel minimizing the cost of an (m, n)
// region — exact for Eq. 2 because region terms are independent given
// boundaries. Scanning the front gives the same cost bits and the same index
// as scanning the whole library (see neverWins). Where divides allows, each
// kernel's wave count is taken by reciprocal multiplication; past the cap and
// under the other cost models the argmin calls kernelRegionCost.
func (p *Planner) frontArgmin(sc *scratch, m, n int) (float64, int) {
	best, arg := math.Inf(1), 0
	if sc.divides(m, n) {
		for _, i := range sc.front {
			if c := sc.waves(&sc.classes[sc.class[i]], m, n) * sc.pipe[i]; c < best {
				best, arg = c, int(i)
			}
		}
		return best, arg
	}
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
// candidate's cost needs except the anchor's own f_pipe, with the remainder
// regions at their lower bounds (left for priceRemainders) while the bound is
// on, at their argmin costs otherwise. Under CostPipeOnly the primary term is
// the anchor's pipe alone, so its wave factor is 1 (x·1 is exact).
func (p *Planner) price(sc *scratch, bs *boundarySet, cl *tileClass, pat PatternID, shape tensor.GemmShape) {
	pes := p.Lib.HW.NumPEs
	bs.enumerate(pat, shape.M, shape.N, cl.um, cl.un, pes)
	cl.pat, cl.n, cl.end, cl.priced = pat, bs.n, bs.end, 0
	// ext keys extents in 32 bits, like the memo.
	bounded := sc.bounded && uint64(shape.M|shape.N) <= math.MaxUint32
	lo := 0
	for ci, end := range bs.end[:bs.n] {
		g := bs.rects[lo]
		switch {
		case p.Cost == CostPipeOnly:
			cl.vals[lo] = 1
		case sc.divides(g.m, g.n):
			cl.vals[lo] = sc.waves(cl, g.m, g.n)
		default:
			cl.vals[lo] = WaveCount(((g.m+cl.um-1)/cl.um)*((g.n+cl.un-1)/cl.un), pes)
		}
		for j := lo + 1; j < int(end); j++ {
			r := bs.rects[j]
			if bounded {
				cl.vals[j] = sc.remainderBound(r.m, r.n)
				cl.ext[j] = [2]uint32{uint32(r.m), uint32(r.n)}
			} else {
				cl.vals[j] = p.regionArgmin(sc, r.m, r.n)
			}
		}
		if !bounded {
			cl.priced |= 1 << ci
		}
		lo = int(end)
	}
}

// priceRemainders replaces candidate ci's remainder bounds, vals[lo+1:end],
// with their argmin costs.
func (p *Planner) priceRemainders(sc *scratch, cl *tileClass, ci, lo, end int) {
	for j := lo + 1; j < end; j++ {
		cl.vals[j] = p.regionArgmin(sc, int(cl.ext[j][0]), int(cl.ext[j][1]))
	}
	cl.priced |= 1 << ci
}

// sumFrom adds primary and then rems, in order, to 0 — the one summation both
// a candidate's total and its lower bound use, so that the bound's roundings
// mirror the total's.
func sumFrom(primary float64, rems []float64) float64 {
	total := 0.0
	total += primary
	for _, r := range rems {
		total += r
	}
	return total
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
