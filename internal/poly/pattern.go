package poly

import "fmt"

// PatternID names the nine representative polymerization patterns retained
// from the seven-block skeleton of Fig. 5(b). Pattern I keeps the template
// intact (one region); the others split the output space so that each region
// can be served by a differently sized micro-kernel, isolating ragged edges
// and balancing the final wave.
//
// On GPUs only Patterns I and II are used (§4: the dynamic hardware
// scheduler makes finer splits rarely profitable and online time is at a
// premium); on NPUs all nine are explored.
type PatternID int

const (
	// PatternI: one region covering the whole output.
	PatternI PatternID = iota + 1
	// PatternII: horizontal split — top band + bottom band (the pattern
	// of the paper's running example and case study).
	PatternII
	// PatternIII: vertical split — left band + right band.
	PatternIII
	// PatternIV: horizontal split, bottom band split vertically.
	PatternIV
	// PatternV: vertical split, right band split horizontally.
	PatternV
	// PatternVI: 2×2 grid — main block, right edge, bottom edge, corner.
	PatternVI
	// PatternVII: three horizontal bands.
	PatternVII
	// PatternVIII: three vertical bands.
	PatternVIII
	// PatternIX: horizontal split, bottom band split into three columns.
	PatternIX
	// PatternSplitK slices the reduction dimension instead of the output
	// plane, restoring parallelism for skinny outputs with deep
	// reductions (e.g. Fig. 1's (105, 1024, 12544)). This is an extension
	// beyond the paper's nine output-plane patterns; enable it with
	// Planner.EnableSplitK.
	PatternSplitK
)

// gpuPatternSet and npuPatternSet are the platform-default pattern lists the
// planner iterates directly; the exported accessors return copies so callers
// cannot mutate the defaults out from under the hot path.
var (
	gpuPatternSet = []PatternID{PatternI, PatternII}
	npuPatternSet = []PatternID{
		PatternI, PatternII, PatternIII, PatternIV, PatternV,
		PatternVI, PatternVII, PatternVIII, PatternIX,
	}
)

// GPUPatterns is the pattern subset used on dynamically scheduled devices.
func GPUPatterns() []PatternID { return append([]PatternID(nil), gpuPatternSet...) }

// NPUPatterns is the full pattern set used on statically scheduled devices.
func NPUPatterns() []PatternID { return append([]PatternID(nil), npuPatternSet...) }

func (p PatternID) String() string {
	switch p {
	case PatternI:
		return "I"
	case PatternII:
		return "II"
	case PatternIII:
		return "III"
	case PatternIV:
		return "IV"
	case PatternV:
		return "V"
	case PatternVI:
		return "VI"
	case PatternVII:
		return "VII"
	case PatternVIII:
		return "VIII"
	case PatternIX:
		return "IX"
	case PatternSplitK:
		return "split-K"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// patternSpanName returns the trace-span name for a pattern enumeration
// without concatenating strings on the hot path.
func patternSpanName(p PatternID) string {
	switch p {
	case PatternI:
		return "poly.pattern.I"
	case PatternII:
		return "poly.pattern.II"
	case PatternIII:
		return "poly.pattern.III"
	case PatternIV:
		return "poly.pattern.IV"
	case PatternV:
		return "poly.pattern.V"
	case PatternVI:
		return "poly.pattern.VI"
	case PatternVII:
		return "poly.pattern.VII"
	case PatternVIII:
		return "poly.pattern.VIII"
	case PatternIX:
		return "poly.pattern.IX"
	default:
		return "poly.pattern." + p.String()
	}
}

// rect is a candidate region geometry before kernel assignment.
type rect struct{ m0, n0, m, n int }

// roundDown returns the largest multiple of align not exceeding n.
func roundDown(n, align int) int {
	if align <= 0 {
		return n
	}
	return n / align * align
}

// tileGrid is the granularity all secondary split points snap to; every
// generated micro-kernel tile is a multiple of it.
const tileGrid = 16

const (
	// maxSplits bounds the primary split points of one enumeration: the
	// maximal anchor-aligned prefix plus up to eight wave-aligned prefixes.
	maxSplits = 9
	// maxRegions is the largest region count of any pattern (VI and IX).
	maxRegions = 4
)

// splitPoints returns the candidate first-split rows for an anchor tile
// (um, un): the maximal um-aligned prefix of M plus the wave-aligned prefixes,
// i.e. row counts whose task count fills an integral number of waves on
// numPEs PEs — the choice that removes the underfull last wave of the case
// study (§6). Vertical splits are the same computation with the axes swapped:
// splitPoints(N, M, un, um, numPEs).
func splitPoints(M, N, um, un, numPEs int) (pts [maxSplits]int, n int) {
	t1max := M / um
	if t1max < 1 {
		return pts, 0
	}
	t2 := (N + un - 1) / un
	add := func(t1 int) {
		if t1 < 1 || t1 > t1max {
			return
		}
		mA := t1 * um
		if mA >= M {
			// Full coverage degenerates to Pattern I unless a ragged
			// remainder exists.
			if M%um == 0 {
				return
			}
			mA = t1max * um
		}
		for _, seen := range pts[:n] {
			if seen == mA {
				return
			}
		}
		pts[n] = mA
		n++
	}
	add(t1max)
	maxWaves := (t1max*t2 + numPEs - 1) / numPEs
	for w := 1; w <= maxWaves && w < maxSplits; w++ {
		add(w * numPEs / t2)
	}
	return pts, n
}

// boundarySet is caller-owned storage for the boundary candidates one pattern
// yields for a shape and an anchor tile. Candidate i is
// rects[end[i-1]:end[i]] with its zero-area rects already dropped, so the
// first rect of a candidate is its primary (anchored) region. The set lives on
// the caller's stack: enumerating allocates nothing.
type boundarySet struct {
	rects [maxSplits * maxRegions]rect
	end   [maxSplits]uint8
	n     int
}

// cand returns the rects of candidate i.
func (b *boundarySet) cand(i int) []rect {
	lo := 0
	if i > 0 {
		lo = int(b.end[i-1])
	}
	return b.rects[lo:b.end[i]]
}

// total is the number of rects over all candidates.
func (b *boundarySet) total() int {
	if b.n == 0 {
		return 0
	}
	return int(b.end[b.n-1])
}

// add appends one candidate, dropping zero-area rects; a candidate that loses
// every rect is meaningless and is not recorded.
func (b *boundarySet) add(rs ...rect) {
	lo := b.total()
	hi := lo
	for _, r := range rs {
		if r.m > 0 && r.n > 0 {
			b.rects[hi] = r
			hi++
		}
	}
	if hi > lo {
		b.end[b.n] = uint8(hi)
		b.n++
	}
}

// enumerate fills b with the region geometries pattern pat yields for an
// (M, N) output and an anchor tile (um, un). The anchor sizes the primary
// split; the secondary splits snap to the 16-wide tile grid so that any
// library kernel can serve the remaining regions. Geometry depends on the
// anchor only through its output tile — uK never moves a split point — which
// is what lets the search price a tile class once for all its anchors.
func (b *boundarySet) enumerate(pat PatternID, M, N, um, un, numPEs int) {
	b.n = 0
	// The vertical-first patterns are their horizontal counterparts on the
	// transposed problem.
	transposed := true
	switch pat {
	case PatternIII:
		pat = PatternII
	case PatternV:
		pat = PatternIV
	case PatternVIII:
		pat = PatternVII
	default:
		transposed = false
	}
	if transposed {
		M, N, um, un = N, M, un, um
	}

	switch pat {
	case PatternI:
		b.add(rect{0, 0, M, N})

	case PatternII:
		pts, np := splitPoints(M, N, um, un, numPEs)
		for _, mA := range pts[:np] {
			b.add(rect{0, 0, mA, N}, rect{mA, 0, M - mA, N})
		}

	case PatternIV:
		nSplit := roundDown(N, max(un, tileGrid))
		if nSplit <= 0 || nSplit >= N {
			nSplit = roundDown(N/2, tileGrid)
		}
		pts, np := splitPoints(M, N, um, un, numPEs)
		for _, mA := range pts[:np] {
			b.add(rect{0, 0, mA, N},
				rect{mA, 0, M - mA, nSplit},
				rect{mA, nSplit, M - mA, N - nSplit})
		}

	case PatternVI:
		nA := roundDown(N, un)
		if nA <= 0 || nA >= N {
			return // no ragged right edge: covered by II
		}
		pts, np := splitPoints(M, nA, um, un, numPEs)
		for _, mA := range pts[:np] {
			b.add(rect{0, 0, mA, nA},
				rect{0, nA, mA, N - nA},
				rect{mA, 0, M - mA, nA},
				rect{mA, nA, M - mA, N - nA})
		}

	case PatternVII:
		pts, np := splitPoints(M, N, um, un, numPEs)
		for _, mA := range pts[:np] {
			rest := M - mA
			mB := roundDown(rest/2, tileGrid)
			b.add(rect{0, 0, mA, N},
				rect{mA, 0, mB, N},
				rect{mA + mB, 0, rest - mB, N})
		}

	case PatternIX:
		n1 := roundDown(N/3, tileGrid)
		n2 := roundDown(2*N/3, tileGrid)
		if n1 <= 0 || n2 <= n1 || n2 >= N {
			return
		}
		pts, np := splitPoints(M, N, um, un, numPEs)
		for _, mA := range pts[:np] {
			rest := M - mA
			b.add(rect{0, 0, mA, N},
				rect{mA, 0, rest, n1},
				rect{mA, n1, rest, n2 - n1},
				rect{mA, n2, rest, N - n2})
		}
	}

	if transposed {
		for i := range b.rects[:b.total()] {
			r := &b.rects[i]
			r.m0, r.n0, r.m, r.n = r.n0, r.m0, r.n, r.m
		}
	}
}
