package poly

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// This file keeps the flat search the tile-class sweep replaced as a test-only
// reference: slice-of-slices boundary enumeration, a full-library argmin for
// every non-anchor region of every candidate, no kernel front, no memo. The
// production search must reproduce it bit for bit — pattern, regions, kernels,
// EstimatedCost bits and PrunedAnchors, and its Candidates as the production
// Candidates + PrunedCandidates — so it is deliberately left as it was
// written, not shared with or simplified towards the code it checks.

func refSplitPointsM(M, N int, a kernel.MicroKernel, numPEs int) []int {
	t1max := M / a.UM
	if t1max < 1 {
		return nil
	}
	t2 := (N + a.UN - 1) / a.UN
	seen := map[int]bool{}
	var out []int
	add := func(t1 int) {
		if t1 < 1 || t1 > t1max {
			return
		}
		mA := t1 * a.UM
		if mA >= M {
			if M%a.UM == 0 {
				return
			}
			mA = t1max * a.UM
		}
		if !seen[mA] {
			seen[mA] = true
			out = append(out, mA)
		}
	}
	add(t1max)
	maxWaves := (t1max*t2 + numPEs - 1) / numPEs
	for w := 1; w <= maxWaves && w <= 8; w++ {
		add(w * numPEs / t2)
	}
	return out
}

func refSplitPointsN(M, N int, a kernel.MicroKernel, numPEs int) []int {
	t2max := N / a.UN
	if t2max < 1 {
		return nil
	}
	t1 := (M + a.UM - 1) / a.UM
	seen := map[int]bool{}
	var out []int
	add := func(t2 int) {
		if t2 < 1 || t2 > t2max {
			return
		}
		nA := t2 * a.UN
		if nA >= N {
			if N%a.UN == 0 {
				return
			}
			nA = t2max * a.UN
		}
		if !seen[nA] {
			seen[nA] = true
			out = append(out, nA)
		}
	}
	add(t2max)
	maxWaves := (t2max*t1 + numPEs - 1) / numPEs
	for w := 1; w <= maxWaves && w <= 8; w++ {
		add(w * numPEs / t1)
	}
	return out
}

func refDropEmpty(rs []rect) []rect {
	out := rs[:0]
	for _, r := range rs {
		if r.m > 0 && r.n > 0 {
			out = append(out, r)
		}
	}
	return out
}

func refMax(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func refBoundaryCandidates(pat PatternID, M, N int, anchor kernel.MicroKernel, numPEs int) [][]rect {
	var out [][]rect
	switch pat {
	case PatternI:
		out = append(out, []rect{{0, 0, M, N}})

	case PatternII:
		for _, mA := range refSplitPointsM(M, N, anchor, numPEs) {
			out = append(out, refDropEmpty([]rect{
				{0, 0, mA, N},
				{mA, 0, M - mA, N},
			}))
		}

	case PatternIII:
		for _, nA := range refSplitPointsN(M, N, anchor, numPEs) {
			out = append(out, refDropEmpty([]rect{
				{0, 0, M, nA},
				{0, nA, M, N - nA},
			}))
		}

	case PatternIV:
		nSplit := roundDown(N, refMax(anchor.UN, tileGrid))
		if nSplit <= 0 || nSplit >= N {
			nSplit = roundDown(N/2, tileGrid)
		}
		for _, mA := range refSplitPointsM(M, N, anchor, numPEs) {
			out = append(out, refDropEmpty([]rect{
				{0, 0, mA, N},
				{mA, 0, M - mA, nSplit},
				{mA, nSplit, M - mA, N - nSplit},
			}))
		}

	case PatternV:
		mSplit := roundDown(M, refMax(anchor.UM, tileGrid))
		if mSplit <= 0 || mSplit >= M {
			mSplit = roundDown(M/2, tileGrid)
		}
		for _, nA := range refSplitPointsN(M, N, anchor, numPEs) {
			out = append(out, refDropEmpty([]rect{
				{0, 0, M, nA},
				{0, nA, mSplit, N - nA},
				{mSplit, nA, M - mSplit, N - nA},
			}))
		}

	case PatternVI:
		nA := roundDown(N, anchor.UN)
		if nA <= 0 || nA >= N {
			return nil
		}
		for _, mA := range refSplitPointsM(M, nA, anchor, numPEs) {
			out = append(out, refDropEmpty([]rect{
				{0, 0, mA, nA},
				{0, nA, mA, N - nA},
				{mA, 0, M - mA, nA},
				{mA, nA, M - mA, N - nA},
			}))
		}

	case PatternVII:
		for _, mA := range refSplitPointsM(M, N, anchor, numPEs) {
			rest := M - mA
			mB := roundDown(rest/2, tileGrid)
			out = append(out, refDropEmpty([]rect{
				{0, 0, mA, N},
				{mA, 0, mB, N},
				{mA + mB, 0, rest - mB, N},
			}))
		}

	case PatternVIII:
		for _, nA := range refSplitPointsN(M, N, anchor, numPEs) {
			rest := N - nA
			nB := roundDown(rest/2, tileGrid)
			out = append(out, refDropEmpty([]rect{
				{0, 0, M, nA},
				{0, nA, M, nB},
				{0, nA + nB, M, rest - nB},
			}))
		}

	case PatternIX:
		for _, mA := range refSplitPointsM(M, N, anchor, numPEs) {
			rest := M - mA
			n1 := roundDown(N/3, tileGrid)
			n2 := roundDown(2*N/3, tileGrid)
			if n1 <= 0 || n2 <= n1 || n2 >= N {
				continue
			}
			out = append(out, refDropEmpty([]rect{
				{0, 0, mA, N},
				{mA, 0, rest, n1},
				{mA, n1, rest, n2 - n1},
				{mA, n2, rest, N - n2},
			}))
		}
	}

	kept := out[:0]
	for _, rs := range out {
		if len(rs) > 0 {
			kept = append(kept, rs)
		}
	}
	return kept
}

func refPipeTable(p *Planner, K int) []float64 {
	pipe := make([]float64, len(p.Lib.Kernels))
	for i, k := range p.Lib.Kernels {
		pipe[i] = p.Lib.PredictAt(i, (K+k.UK-1)/k.UK)
	}
	return pipe
}

func refKernelRegionCost(p *Planner, pipe []float64, i int, g rect) float64 {
	k := &p.Lib.Kernels[i]
	t1 := (g.m + k.UM - 1) / k.UM
	t2 := (g.n + k.UN - 1) / k.UN
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

// refArgmin is the full-library argmin: first strict minimum in index order.
func refArgmin(p *Planner, pipe []float64, g rect) (float64, int) {
	best, arg := math.Inf(1), 0
	for i := range p.Lib.Kernels {
		if rc := refKernelRegionCost(p, pipe, i, g); rc < best {
			best, arg = rc, i
		}
	}
	return best, arg
}

func refEvalCandidate(p *Planner, pipe []float64, geoms []rect, anchorIdx int, anchored bool) float64 {
	total := 0.0
	for gi := range geoms {
		var c float64
		if gi == 0 && anchored {
			c = refKernelRegionCost(p, pipe, anchorIdx, geoms[gi])
		} else {
			c, _ = refArgmin(p, pipe, geoms[gi])
		}
		total += c
	}
	return total
}

// refPlan is the reference non-oracle search. Split-K scoring is the
// production evalSplitK, which the sweep did not touch.
func refPlan(p *Planner, shape tensor.GemmShape) (*Program, PlanStats) {
	var stats PlanStats
	pipe := refPipeTable(p, shape.K)
	pes := p.Lib.HW.NumPEs
	var win winner
	for _, pat := range p.patterns() {
		for ai := range p.Lib.Kernels {
			if !p.DisablePruning && win.valid && pat != PatternI {
				if p.anchorLowerBound(pipe, ai) >= win.cost {
					stats.PrunedAnchors++
					continue
				}
			}
			for ci, geoms := range refBoundaryCandidates(pat, shape.M, shape.N, p.Lib.Kernels[ai], pes) {
				total := refEvalCandidate(p, pipe, geoms, ai, pat != PatternI)
				stats.Candidates++
				if !win.valid || total < win.cost {
					win = winner{valid: true, cost: total, pat: pat, anchorIdx: ai, candIdx: ci}
				}
			}
			if pat == PatternI {
				break
			}
		}
	}
	if p.EnableSplitK {
		p.evalSplitK(shape, &stats, &win)
	}
	if win.pat == PatternSplitK {
		prog := p.buildSplitK(shape, win.anchorIdx, win.candIdx)
		prog.EstimatedCost = win.cost
		return prog, stats
	}
	geoms := refBoundaryCandidates(win.pat, shape.M, shape.N, p.Lib.Kernels[win.anchorIdx], pes)[win.candIdx]
	prog := &Program{Shape: shape, Pattern: win.pat, EstimatedCost: win.cost}
	for gi, g := range geoms {
		ki := win.anchorIdx
		if !(gi == 0 && win.pat != PatternI) {
			_, ki = refArgmin(p, pipe, g)
		}
		prog.Regions = append(prog.Regions, Region{
			M0: g.m0, N0: g.n0, M: g.m, N: g.n, K: shape.K, Kern: p.Lib.Kernels[ki],
		})
	}
	return prog, stats
}

// randomLibrary builds a small model-less library (g_predict falls back to
// the analytic task cost) that stresses the kernel front and the tile-class
// sweep: duplicated tiles with different uK or schedule, exact duplicates
// (tied pipe, the earlier index must win), and premium nudges of 1e-12 —
// near-ties far inside the front's 1e-9 strictness margin.
func randomLibrary(rng *rand.Rand, h hw.Hardware) *tune.Library {
	tiles := []int{8, 16, 24, 32, 64, 128, 256}
	n := 4 + rng.Intn(9)
	ks := make([]kernel.MicroKernel, 0, n)
	for len(ks) < n {
		var k kernel.MicroKernel
		switch r := rng.Intn(10); {
		case r < 3 && len(ks) > 0: // same tile, different reduction tile
			k = ks[rng.Intn(len(ks))]
			k.UK = 16 << rng.Intn(4)
		case r < 5 && len(ks) > 0: // near-tied pipe
			k = ks[rng.Intn(len(ks))]
			k.Premium += float64(rng.Intn(3)-1) * 1e-12
		case r < 6 && len(ks) > 0: // exact duplicate
			k = ks[rng.Intn(len(ks))]
		default:
			k = kernel.New(tiles[rng.Intn(len(tiles))], tiles[rng.Intn(len(tiles))], 16<<rng.Intn(4),
				kernel.Config{Stages: 1 + rng.Intn(4), Vec: 1 << rng.Intn(4)})
		}
		ks = append(ks, k)
	}
	return &tune.Library{HW: h, Kernels: ks}
}

// equivalenceLibraries is the library axis of the equivalence property: the
// two tuned test libraries plus three seeded random ones.
func equivalenceLibraries(t testing.TB) []*tune.Library {
	gpu, npu := libs(t)
	rng := rand.New(rand.NewSource(22))
	return []*tune.Library{
		npu, gpu,
		randomLibrary(rng, hw.Ascend910()),
		randomLibrary(rng, hw.Ascend910()),
		randomLibrary(rng, hw.A100()),
	}
}

// equivalencePlanner decodes one point of the configuration axes
// {library} × {CostFull, CostWaveOnly, CostPipeOnly} × EnableSplitK ×
// DisablePruning from cfg.
func equivalencePlanner(libs []*tune.Library, cfg int) *Planner {
	p := NewPlanner(libs[cfg%len(libs)])
	cfg /= len(libs)
	p.Cost = []CostModel{CostFull, CostWaveOnly, CostPipeOnly}[cfg%3]
	cfg /= 3
	p.EnableSplitK = cfg%2 == 1
	p.DisablePruning = cfg/2%2 == 1
	return p
}

// tinyMemo is the region-argmin table size checkSweepMatchesReference cuts a
// caller-supplied scratch down to.
const tinyMemo = 4

// checkSweepMatchesReference plans shape with the production search — on sc
// with a tinyMemo-slot memo when non-nil, through Plan otherwise — and with
// refPlan, and requires equal pattern, regions, kernels, EstimatedCost bits
// and PrunedAnchors; every reference candidate either costed or
// bound-rejected (none rejected under DisablePruning), hence the same modeled
// overhead; and ProgramCost(winner) == EstimatedCost bits under the full
// model.
func checkSweepMatchesReference(t testing.TB, p *Planner, sc *scratch, shape tensor.GemmShape) PlanStats {
	t.Helper()
	var got *Program
	var gotStats PlanStats
	var err error
	if sc != nil {
		p.prepare(sc, shape.K)
		sc.memo = sc.memo[:tinyMemo]
		got, err = p.planSequential(context.Background(), sc, shape, &gotStats)
	} else {
		got, gotStats, err = p.Plan(shape)
	}
	if err != nil {
		t.Fatalf("%v: %v", shape, err)
	}
	want, wantStats := refPlan(p, shape)
	id := fmt.Sprintf("%s/%d kernels cost=%s splitK=%v noprune=%v %v",
		p.Lib.HW.Name, len(p.Lib.Kernels), p.Cost, p.EnableSplitK, p.DisablePruning, shape)
	if got.Pattern != want.Pattern || !reflect.DeepEqual(got.Regions, want.Regions) {
		t.Fatalf("%s: program differs\n got %s\nwant %s", id, got, want)
	}
	if math.Float64bits(got.EstimatedCost) != math.Float64bits(want.EstimatedCost) {
		t.Fatalf("%s: cost bits %016x, reference %016x", id,
			math.Float64bits(got.EstimatedCost), math.Float64bits(want.EstimatedCost))
	}
	if gotStats.Candidates+gotStats.PrunedCandidates != wantStats.Candidates || gotStats.PrunedAnchors != wantStats.PrunedAnchors {
		t.Fatalf("%s: candidates+bound-rejected/pruned anchors %d+%d/%d, reference %d/%d", id,
			gotStats.Candidates, gotStats.PrunedCandidates, gotStats.PrunedAnchors, wantStats.Candidates, wantStats.PrunedAnchors)
	}
	if p.DisablePruning && gotStats.PrunedCandidates != 0 {
		t.Fatalf("%s: %d candidates bound-rejected with pruning disabled", id, gotStats.PrunedCandidates)
	}
	if gotStats.ModeledOverheadCycles() != wantStats.ModeledOverheadCycles() {
		t.Fatalf("%s: modeled overhead %g, reference %g", id,
			gotStats.ModeledOverheadCycles(), wantStats.ModeledOverheadCycles())
	}
	if p.Cost == CostFull {
		if pc := ProgramCost(got, p.Lib); math.Float64bits(pc) != math.Float64bits(got.EstimatedCost) {
			t.Fatalf("%s: ProgramCost %016x != EstimatedCost %016x", id,
				math.Float64bits(pc), math.Float64bits(got.EstimatedCost))
		}
	}
	return gotStats
}

// equivalenceShape draws the i-th shape of the property's stream: uniform over
// [1,8192]³, with every fourth draw forced into a corner the uniform draw
// rarely reaches — an extent below every tile, M = 1, or prime extents.
func equivalenceShape(rng *rand.Rand, i int) tensor.GemmShape {
	s := tensor.GemmShape{M: 1 + rng.Intn(8192), N: 1 + rng.Intn(8192), K: 1 + rng.Intn(8192)}
	primes := []int{2, 3, 7, 13, 17, 127, 131, 257, 521, 1031, 4099, 8191}
	switch i % 16 {
	case 0:
		s.M = 1 + rng.Intn(7)
	case 4:
		s.N = 1 + rng.Intn(7)
	case 8:
		s.M = 1
	case 12:
		s.M, s.N = primes[rng.Intn(len(primes))], primes[rng.Intn(len(primes))]
	}
	return s
}

// TestSweepMatchesReference is the pruned ≡ unpruned property of the search
// rewrite: over 2 400 seeded shapes spread across every library × cost model
// × split-K × pruning configuration, the tile-class sweep and the flat
// reference choose the same program with the same cost bits, the sweep
// costing or bound-rejecting every candidate the reference costs.
func TestSweepMatchesReference(t *testing.T) {
	libs := equivalenceLibraries(t)
	rng := rand.New(rand.NewSource(2206))
	nCfg := len(libs) * 3 * 2 * 2
	planners := make([]*Planner, nCfg)
	for c := range planners {
		planners[c] = equivalencePlanner(libs, c)
	}
	rejected := map[CostModel]int{}
	for i := 0; i < 2400; i++ {
		p := planners[i%nCfg]
		rejected[p.Cost] += checkSweepMatchesReference(t, p, nil, equivalenceShape(rng, i)).PrunedCandidates
	}
	// Not CostPipeOnly: Pattern I already costs pipeMin there, so the anchor
	// bound prunes every anchor before a boundary is examined.
	for _, c := range []CostModel{CostFull, CostWaveOnly} {
		if rejected[c] == 0 {
			t.Errorf("cost=%s: the remainder bound never rejected a candidate: the property was not exercised", c)
		}
	}
	// A caller-chosen pattern list: out of order, a repeat, Pattern I last.
	custom := NewPlanner(libs[0])
	custom.Patterns = []PatternID{PatternIX, PatternII, PatternII, PatternVI, PatternI}
	for i := 0; i < 100; i++ {
		checkSweepMatchesReference(t, custom, nil, equivalenceShape(rng, i))
	}
	if strconv.IntSize == 64 {
		// Extents beyond the memo's 32-bit keys take the direct argmin.
		big := 1 << (strconv.IntSize/2 + 1)
		checkSweepMatchesReference(t, planners[0], nil, tensor.GemmShape{M: big + 5, N: 3, K: 64})
		checkSweepMatchesReference(t, planners[0], nil, tensor.GemmShape{M: 48, N: big + 77, K: 64})
	}
}

// TestSweepOnFullMemo runs the search with a region-argmin table of four
// slots: nearly every lookup exhausts its probe sequence and must
// fall back to the direct argmin, with the same result.
func TestSweepOnFullMemo(t *testing.T) {
	libs := equivalenceLibraries(t)
	rng := rand.New(rand.NewSource(4))
	sc := new(scratch)
	full := 0
	for i := 0; i < 60; i++ {
		checkSweepMatchesReference(t, equivalencePlanner(libs, i), sc, equivalenceShape(rng, i))
		free := 0
		for _, s := range sc.memo {
			if s.m == 0 {
				free++
			}
		}
		if free == 0 {
			full++
		}
	}
	if full < 30 {
		t.Fatalf("only %d of 60 plans filled the table: the overflow path was not exercised", full)
	}
}

// TestFrontArgminMatchesFullArgmin: the kernel front never changes a region
// argmin — neither its cost bits nor the chosen index, ties included — and
// the remainder bound built from the front never exceeds the argmin.
func TestFrontArgminMatchesFullArgmin(t *testing.T) {
	libs := equivalenceLibraries(t)
	rng := rand.New(rand.NewSource(9))
	sc := getScratch()
	defer putScratch(sc)
	dropped := 0
	for c := 0; c < len(libs)*3; c++ {
		p := equivalencePlanner(libs, c)
		for _, K := range []int{1, 64, 777, 4096, 12544} {
			p.prepare(sc, K)
			dropped += len(p.Lib.Kernels) - len(sc.front)
			pipe := refPipeTable(p, K)
			for i := 0; i < 200; i++ {
				g := rect{m: 1 + rng.Intn(8192), n: 1 + rng.Intn(8192)}
				if i%4 == 0 {
					g.m = 1 + rng.Intn(40)
				}
				wantCost, wantArg := refArgmin(p, pipe, g)
				if b := sc.remainderBound(g.m, g.n); sc.bounded && !(b <= wantCost) {
					t.Fatalf("%s cost=%s K=%d rect %dx%d: remainder bound %g above the argmin %g",
						p.Lib.HW.Name, p.Cost, K, g.m, g.n, b, wantCost)
				}
				cost, arg := p.frontArgmin(sc, g.m, g.n)
				if math.Float64bits(cost) != math.Float64bits(wantCost) || arg != wantArg {
					t.Fatalf("%s cost=%s K=%d rect %dx%d: front argmin (%g, %d), full argmin (%g, %d)",
						p.Lib.HW.Name, p.Cost, K, g.m, g.n, cost, arg, wantCost, wantArg)
				}
				for pass := 0; pass < 2; pass++ { // miss, then memo hit
					if c := p.regionArgmin(sc, g.m, g.n); math.Float64bits(c) != math.Float64bits(wantCost) {
						t.Fatalf("%s cost=%s K=%d rect %dx%d: memoized argmin %g, full argmin %g",
							p.Lib.HW.Name, p.Cost, K, g.m, g.n, c, wantCost)
					}
				}
			}
		}
	}
	if dropped == 0 {
		t.Fatal("the front never dropped a kernel: the property was not exercised")
	}
}

// TestEnumeratorMatchesReference: the allocation-free enumerator yields the
// reference enumeration rect for rect, for all nine patterns.
func TestEnumeratorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tiles := []int{8, 16, 24, 32, 48, 64, 128, 256}
	var bs boundarySet
	for i := 0; i < 4000; i++ {
		M, N := 1+rng.Intn(8192), 1+rng.Intn(8192)
		if i%3 == 0 {
			M = 1 + rng.Intn(300)
		}
		if i%5 == 0 {
			N = 1 + rng.Intn(300)
		}
		a := kernel.New(tiles[rng.Intn(len(tiles))], tiles[rng.Intn(len(tiles))], 32, kernel.Config{Stages: 2, Vec: 4})
		pes := []int{1, 30, 32, 108}[rng.Intn(4)]
		for _, pat := range NPUPatterns() {
			want := refBoundaryCandidates(pat, M, N, a, pes)
			bs.enumerate(pat, M, N, a.UM, a.UN, pes)
			if bs.n != len(want) {
				t.Fatalf("pattern %s (%d,%d) anchor %v pes %d: %d candidates, reference %d",
					pat, M, N, a, pes, bs.n, len(want))
			}
			for ci := range want {
				if !reflect.DeepEqual(bs.cand(ci), want[ci]) {
					t.Fatalf("pattern %s (%d,%d) anchor %v pes %d candidate %d: %v, reference %v",
						pat, M, N, a, pes, ci, bs.cand(ci), want[ci])
				}
			}
		}
	}
}

// FuzzPlanEquivalence drives the sweep ≡ reference oracle with arbitrary
// shapes and configurations.
func FuzzPlanEquivalence(f *testing.F) {
	libs := equivalenceLibraries(f)
	f.Add(4096, 1024, 4096, 0)
	f.Add(1, 1, 1, 7)
	f.Add(105, 1024, 12544, 22)
	f.Add(8191, 13, 257, 41)
	f.Add(17, 8192, 3, 59)
	f.Fuzz(func(t *testing.T, m, n, k, cfg int) {
		shape := tensor.GemmShape{M: m, N: n, K: k}
		if !shape.Valid() || m > 1<<14 || n > 1<<14 || k > 1<<16 || cfg < 0 {
			return
		}
		checkSweepMatchesReference(t, equivalencePlanner(libs, cfg), nil, shape)
	})
}
