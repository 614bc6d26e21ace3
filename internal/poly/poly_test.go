package poly

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

var (
	libOnce sync.Once
	gpuLib  *tune.Library
	npuLib  *tune.Library
)

func libs(t testing.TB) (*tune.Library, *tune.Library) {
	t.Helper()
	libOnce.Do(func() {
		opts := tune.Options{NGen: 12, NSyn: 12, NMik: 16, NPred: 1024}
		var err error
		if gpuLib, err = tune.Generate(hw.A100(), opts); err != nil {
			panic(err)
		}
		if npuLib, err = tune.Generate(hw.Ascend910(), opts); err != nil {
			panic(err)
		}
	})
	return gpuLib, npuLib
}

func TestRegionTilesAndTasks(t *testing.T) {
	r := Region{M: 100, N: 50, K: 70, Kern: kernel.New(32, 16, 32, kernel.Config{Stages: 2, Vec: 4})}
	t1, t2, t3 := r.Tiles()
	if t1 != 4 || t2 != 4 || t3 != 3 {
		t.Fatalf("Tiles = %d,%d,%d want 4,4,3 (local padding rounds up)", t1, t2, t3)
	}
	if r.Tasks() != 16 {
		t.Fatalf("Tasks = %d, want 16", r.Tasks())
	}
}

func TestProgramValidateCoverage(t *testing.T) {
	shape := tensor.GemmShape{M: 100, N: 60, K: 40}
	k := kernel.New(16, 16, 16, kernel.Config{Stages: 2, Vec: 4})
	good := &Program{
		Shape:   shape,
		Pattern: PatternII,
		Regions: []Region{
			{M0: 0, N0: 0, M: 64, N: 60, K: 40, Kern: k},
			{M0: 64, N0: 0, M: 36, N: 60, K: 40, Kern: k},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}

	gap := &Program{Shape: shape, Pattern: PatternI, Regions: []Region{{M0: 0, N0: 0, M: 64, N: 60, K: 40, Kern: k}}}
	if gap.Validate() == nil {
		t.Fatal("gap not detected")
	}

	overlap := &Program{
		Shape:   shape,
		Pattern: PatternII,
		Regions: []Region{
			{M0: 0, N0: 0, M: 64, N: 60, K: 40, Kern: k},
			{M0: 60, N0: 0, M: 40, N: 60, K: 40, Kern: k},
		},
	}
	if overlap.Validate() == nil {
		t.Fatal("overlap not detected")
	}

	badK := &Program{Shape: shape, Pattern: PatternI, Regions: []Region{{M0: 0, N0: 0, M: 100, N: 60, K: 39, Kern: k}}}
	if badK.Validate() == nil {
		t.Fatal("wrong reduction extent not detected")
	}

	outside := &Program{Shape: shape, Pattern: PatternI, Regions: []Region{{M0: 10, N0: 0, M: 100, N: 60, K: 40, Kern: k}}}
	if outside.Validate() == nil {
		t.Fatal("out-of-bounds region not detected")
	}

	// Plan snapshots decode programs from disk: a pattern outside
	// PatternI..PatternSplitK is rejected even when the regions tile.
	for _, pat := range []PatternID{0, PatternSplitK + 1, PatternSplitK + 2, -1} {
		bad := *good
		bad.Pattern = pat
		if bad.Validate() == nil {
			t.Fatalf("pattern %s accepted", pat)
		}
	}
}

func TestProgramValidateChainPattern(t *testing.T) {
	gpu, _ := libs(t)
	p := NewPlanner(gpu)
	plain, _, err := p.Plan(tensor.GemmShape{M: 4096, N: 128, K: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Validate(); err != nil {
		t.Fatalf("planned program rejected: %v", err)
	}
	// The slot after PatternSplitK once named the fused GEMM-chain pattern;
	// a planned program relabelled with it (as an old plan snapshot would
	// decode) must fail even though its regions tile the shape.
	bad := *plain
	bad.Pattern = PatternSplitK + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("planned regions under the retired chain pattern accepted")
	}
}

func TestProgramTasks(t *testing.T) {
	shape := tensor.GemmShape{M: 64, N: 64, K: 64}
	k := kernel.New(32, 32, 32, kernel.Config{Stages: 2, Vec: 4})
	prog := &Program{Shape: shape, Pattern: PatternI,
		Regions: []Region{{M: 64, N: 64, K: 64, Kern: k}}}
	h := hw.A100()
	tasks := prog.Tasks(h)
	if len(tasks) != 4 {
		t.Fatalf("task count = %d, want 4", len(tasks))
	}
	want := k.PipelinedTask(h, 2)
	for _, task := range tasks {
		if task.ComputeCycles != want.ComputeCycles || task.MemBytes != want.MemBytes {
			t.Fatal("task cost mismatch")
		}
	}
}

func TestPatternSets(t *testing.T) {
	if len(GPUPatterns()) != 2 {
		t.Fatalf("GPU patterns = %v, want I and II (§4)", GPUPatterns())
	}
	if len(NPUPatterns()) != 9 {
		t.Fatalf("NPU patterns = %d, want 9 (Fig. 5b)", len(NPUPatterns()))
	}
	if PatternI.String() != "I" || PatternIX.String() != "IX" {
		t.Fatal("pattern names wrong")
	}
	if PatternID(99).String() != "Pattern(99)" {
		t.Fatal("unknown pattern formatting wrong")
	}
}

// Every boundary candidate of every pattern must exactly tile the output.
func TestBoundaryCandidatesCoverage(t *testing.T) {
	anchors := []kernel.MicroKernel{
		kernel.New(128, 128, 32, kernel.Config{Stages: 2, Vec: 4}),
		kernel.New(64, 64, 64, kernel.Config{Stages: 2, Vec: 4}),
		kernel.New(16, 32, 16, kernel.Config{Stages: 2, Vec: 4}),
	}
	shapes := [][2]int{{4096, 1024}, {105, 1024}, {100, 60}, {1, 1}, {16, 4096}, {3000, 17}}
	for _, pat := range NPUPatterns() {
		for _, a := range anchors {
			for _, s := range shapes {
				M, N := s[0], s[1]
				var bs boundarySet
				bs.enumerate(pat, M, N, a.UM, a.UN, 108)
				for ci := 0; ci < bs.n; ci++ {
					geoms := bs.cand(ci)
					var area int64
					for i, g := range geoms {
						if g.m <= 0 || g.n <= 0 {
							t.Fatalf("pattern %s: empty rect survived", pat)
						}
						if g.m0 < 0 || g.n0 < 0 || g.m0+g.m > M || g.n0+g.n > N {
							t.Fatalf("pattern %s shape %v: rect %+v out of bounds", pat, s, g)
						}
						area += int64(g.m) * int64(g.n)
						for j := 0; j < i; j++ {
							o := geoms[j]
							if g.m0 < o.m0+o.m && o.m0 < g.m0+g.m &&
								g.n0 < o.n0+o.n && o.n0 < g.n0+g.n {
								t.Fatalf("pattern %s shape %v: rects overlap", pat, s)
							}
						}
					}
					if area != int64(M)*int64(N) {
						t.Fatalf("pattern %s shape %v anchor %v: area %d != %d",
							pat, s, a, area, int64(M)*int64(N))
					}
				}
			}
		}
	}
}

func TestSplitPointsWaveAligned(t *testing.T) {
	// The case-study geometry: M=4096, N=1024, kernel 256x128, 108 PEs.
	// t2 = 8, so one full wave is 13 rows of tiles (13*8=104 ≤ 108);
	// wave-aligned split candidates must include 13*256=3328 and the
	// maximal split 4096 is excluded (M divisible → Pattern I).
	all, n := splitPoints(4096, 1024, 256, 128, 108)
	pts := all[:n]
	has := func(v int) bool {
		for _, p := range pts {
			if p == v {
				return true
			}
		}
		return false
	}
	if !has(13 * 256) {
		t.Fatalf("wave-aligned split 3328 missing from %v", pts)
	}
	if has(4096) {
		t.Fatalf("degenerate full split present in %v", pts)
	}
	for _, p := range pts {
		if p%256 != 0 || p <= 0 || p >= 4096 {
			t.Fatalf("split %d not aligned interior point", p)
		}
	}
}

func TestPlanProducesValidPrograms(t *testing.T) {
	gpu, npu := libs(t)
	shapes := []tensor.GemmShape{
		{M: 4096, N: 1024, K: 4096},
		{M: 105, N: 1024, K: 12544},
		{M: 1, N: 1, K: 1},
		{M: 17, N: 33, K: 129},
		{M: 2048, N: 2048, K: 64},
		{M: 3, N: 50000, K: 128},
	}
	for _, lib := range []*tune.Library{gpu, npu} {
		pl := NewPlanner(lib)
		for _, s := range shapes {
			prog, stats, err := pl.Plan(s)
			if err != nil {
				t.Fatalf("%s %v: %v", lib.HW.Name, s, err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s %v: %v", lib.HW.Name, s, err)
			}
			if stats.Candidates < 1 {
				t.Fatalf("%s %v: no candidates evaluated", lib.HW.Name, s)
			}
			if prog.EstimatedCost <= 0 {
				t.Fatalf("%s %v: non-positive cost", lib.HW.Name, s)
			}
		}
	}
}

func TestPlanInvalidInputs(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	if _, _, err := pl.Plan(tensor.GemmShape{M: 0, N: 1, K: 1}); err == nil {
		t.Fatal("invalid shape must fail")
	}
	empty := &Planner{Lib: &tune.Library{HW: hw.A100()}}
	if _, _, err := empty.Plan(tensor.GemmShape{M: 1, N: 1, K: 1}); err == nil {
		t.Fatal("empty library must fail")
	}
}

// The headline mechanism: on the case-study shape the polymerized program
// must beat the best single-kernel program on the simulator.
func TestPolymerizationBeatsSingleKernel(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	shape := tensor.GemmShape{M: 4096, N: 1024, K: 4096}

	multi, _, err := pl.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	single, err := pl.PlanPatternI(shape)
	if err != nil {
		t.Fatal(err)
	}
	mc := multi.Simulate(gpu.HW).Cycles
	sc := single.Simulate(gpu.HW).Cycles
	if mc > sc*1.001 {
		t.Fatalf("polymerized program (%g cycles) worse than single-kernel (%g)", mc, sc)
	}
}

func TestPruningPreservesResult(t *testing.T) {
	gpu, npu := libs(t)
	for _, lib := range []*tune.Library{gpu, npu} {
		for _, s := range []tensor.GemmShape{
			{M: 4096, N: 1024, K: 4096},
			{M: 300, N: 700, K: 900},
		} {
			on := NewPlanner(lib)
			off := NewPlanner(lib)
			off.DisablePruning = true
			progOn, statsOn, err := on.Plan(s)
			if err != nil {
				t.Fatal(err)
			}
			progOff, statsOff, err := off.Plan(s)
			if err != nil {
				t.Fatal(err)
			}
			if progOn.EstimatedCost != progOff.EstimatedCost {
				t.Fatalf("%s %v: pruning changed result: %g vs %g",
					lib.HW.Name, s, progOn.EstimatedCost, progOff.EstimatedCost)
			}
			if statsOn.Candidates > statsOff.Candidates {
				t.Fatalf("pruning increased work: %d > %d", statsOn.Candidates, statsOff.Candidates)
			}
			if lib == npuLib && statsOn.PrunedAnchors == 0 && statsOff.Candidates > 50 {
				t.Logf("note: no anchors pruned for %v on %s", s, lib.HW.Name)
			}
		}
	}
}

func TestCostModelVariantsSelectDifferently(t *testing.T) {
	gpu, _ := libs(t)
	shape := tensor.GemmShape{M: 4096, N: 1024, K: 4096}
	kernVol := func(c CostModel) float64 {
		pl := NewPlanner(gpu)
		pl.Cost = c
		prog, _, err := pl.Plan(shape)
		if err != nil {
			t.Fatal(err)
		}
		k := prog.Regions[0].Kern
		return float64(k.UM) * float64(k.UN)
	}
	wave := kernVol(CostWaveOnly)
	pipe := kernVol(CostPipeOnly)
	if wave < pipe {
		t.Fatalf("wave-only picked smaller output tiles (%g) than pipe-only (%g); expected the opposite bias (Fig. 12b)", wave, pipe)
	}
}

func TestOracleAtLeastAsGoodOnSimulator(t *testing.T) {
	gpu, _ := libs(t)
	shape := tensor.GemmShape{M: 2048, N: 512, K: 1024}
	std := NewPlanner(gpu)
	prog, _, err := std.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	oracle := NewPlanner(gpu)
	oracle.Cost = CostOracle
	oprog, _, err := oracle.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if oprog.EstimatedCost > prog.Simulate(gpu.HW).Cycles*1.0001 {
		t.Fatalf("oracle (%g) worse than cost-model plan (%g) on the simulator",
			oprog.EstimatedCost, prog.Simulate(gpu.HW).Cycles)
	}
}

// Property: planned programs are valid and their task counts equal the sum
// of region tile grids for arbitrary shapes.
func TestPlanProperty(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	f := func(seed uint64) bool {
		s := tensor.GemmShape{
			M: int(seed%5000) + 1,
			N: int(seed/5000%5000) + 1,
			K: int(seed/25000000%4000) + 1,
		}
		prog, _, err := pl.Plan(s)
		if err != nil {
			return false
		}
		if prog.Validate() != nil {
			return false
		}
		n := 0
		for _, r := range prog.Regions {
			n += r.Tasks()
		}
		return n == prog.NumTasks() && n > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionCostMatchesEquationTwo(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	k := gpu.Kernels[0]
	r := Region{M: 1000, N: 500, K: 700, Kern: k}
	t1, t2, t3 := r.Tiles()
	waves := math.Ceil(float64(t1*t2) / float64(gpu.HW.NumPEs))
	want := waves * gpu.PredictTask(k, t3)
	sc := getScratch()
	defer putScratch(sc)
	pl.prepare(sc, r.K)
	if got := pl.kernelRegionCost(sc.pipe, 0, r.M, r.N); math.Abs(got-want) > 1e-9 {
		t.Fatalf("kernelRegionCost = %g, want %g", got, want)
	}
}

func TestSketch(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	prog, _, err := pl.Plan(tensor.GemmShape{M: 105, N: 1024, K: 12544})
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Sketch(32, 8)
	if !strings.Contains(s, "A = ") {
		t.Fatalf("sketch missing legend:\n%s", s)
	}
	if strings.Contains(s, "?") {
		t.Fatalf("sketch has uncovered cells:\n%s", s)
	}
	if len(prog.Regions) > 1 && !strings.Contains(s, "B = ") {
		t.Fatalf("multi-region sketch missing second region:\n%s", s)
	}
	empty := &Program{Shape: tensor.GemmShape{M: 1, N: 1, K: 1}}
	if empty.Sketch(8, 4) != "(empty program)" {
		t.Fatal("empty program sketch wrong")
	}
	// Degenerate dimensions are clamped, not panicking.
	_ = prog.Sketch(0, 0)
}

func TestSplitKProgramValidation(t *testing.T) {
	shape := tensor.GemmShape{M: 64, N: 64, K: 128}
	k := kernel.New(16, 16, 16, kernel.Config{Stages: 2, Vec: 4})
	good := &Program{
		Shape:   shape,
		Pattern: PatternSplitK,
		Regions: []Region{
			{M: 64, N: 64, KOff: 0, K: 64, Kern: k},
			{M: 64, N: 64, KOff: 64, K: 64, Kern: k},
		},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid split-K program rejected: %v", err)
	}
	overlapK := &Program{
		Shape:   shape,
		Pattern: PatternSplitK,
		Regions: []Region{
			{M: 64, N: 64, KOff: 0, K: 80, Kern: k},
			{M: 64, N: 64, KOff: 64, K: 64, Kern: k},
		},
	}
	if overlapK.Validate() == nil {
		t.Fatal("overlapping K slices not detected")
	}
	gapK := &Program{
		Shape:   shape,
		Pattern: PatternSplitK,
		Regions: []Region{
			{M: 64, N: 64, KOff: 0, K: 60, Kern: k},
			{M: 64, N: 64, KOff: 64, K: 64, Kern: k},
		},
	}
	if gapK.Validate() == nil {
		t.Fatal("K gap not detected")
	}
}

func TestSplitKPlanningHelpsSkinnyShapes(t *testing.T) {
	gpu, _ := libs(t)
	// Skinny output, deep reduction: the Fig. 1 cliff shape family.
	shape := tensor.GemmShape{M: 128, N: 128, K: 65536}

	base := NewPlanner(gpu)
	baseProg, _, err := base.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	sk := NewPlanner(gpu)
	sk.EnableSplitK = true
	skProg, _, err := sk.Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if err := skProg.Validate(); err != nil {
		t.Fatal(err)
	}
	if skProg.Pattern != PatternSplitK {
		t.Skipf("split-K not selected (pattern %s); cost model preferred output-plane", skProg.Pattern)
	}
	bc := baseProg.Simulate(gpu.HW).Cycles
	sc := skProg.Simulate(gpu.HW).Cycles
	if sc >= bc {
		t.Fatalf("split-K program (%g cycles) slower than baseline (%g)", sc, bc)
	}
	if bc/sc < 1.5 {
		t.Fatalf("split-K speedup only %.2fx on a 1-task-starved shape", bc/sc)
	}
}

func TestSplitKNotUsedWhenDeviceFull(t *testing.T) {
	gpu, _ := libs(t)
	sk := NewPlanner(gpu)
	sk.EnableSplitK = true
	prog, _, err := sk.Plan(tensor.GemmShape{M: 4096, N: 4096, K: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Pattern == PatternSplitK {
		t.Fatal("split-K selected for a device-filling shape")
	}
}

func TestPatternSplitKString(t *testing.T) {
	if PatternSplitK.String() != "split-K" {
		t.Fatalf("String = %q", PatternSplitK.String())
	}
}

func TestExplainMatchesEstimatedCost(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	for _, s := range []tensor.GemmShape{
		{M: 4096, N: 1024, K: 4096},
		{M: 105, N: 1024, K: 12544},
		{M: 37, N: 768, K: 768},
	} {
		prog, _, err := pl.Plan(s)
		if err != nil {
			t.Fatal(err)
		}
		breakdown := Explain(prog, gpu)
		if len(breakdown) != len(prog.Regions) {
			t.Fatalf("breakdown rows = %d, regions = %d", len(breakdown), len(prog.Regions))
		}
		if prog.Pattern != PatternSplitK {
			if diff := math.Abs(TotalCost(breakdown) - prog.EstimatedCost); diff > 1e-6*prog.EstimatedCost {
				t.Fatalf("%v: Explain total %g != EstimatedCost %g",
					s, TotalCost(breakdown), prog.EstimatedCost)
			}
		}
		for _, rc := range breakdown {
			if rc.Tasks != rc.T1*rc.T2 {
				t.Fatal("task count inconsistent")
			}
			if rc.Cost != rc.Waves*rc.Pipe {
				t.Fatal("cost term inconsistent")
			}
		}
	}
}

func TestPlannerPatternOverride(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	pl.Patterns = []PatternID{PatternIII}
	prog, _, err := pl.Plan(tensor.GemmShape{M: 512, N: 1000, K: 256})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Pattern != PatternIII && prog.Pattern != PatternI {
		// Pattern III boundary candidates may degenerate to one region,
		// but the pattern tag must come from the configured set.
		t.Fatalf("pattern %s not from configured set", prog.Pattern)
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanDeterministic(t *testing.T) {
	gpu, _ := libs(t)
	pl := NewPlanner(gpu)
	s := tensor.GemmShape{M: 999, N: 777, K: 555}
	p1, _, err := pl.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	p2, _, err := pl.Plan(s)
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Fatal("planning is not deterministic")
	}
}

func TestSplitPointsNWaveAligned(t *testing.T) {
	// Mirror of the M-split test: N=4096, M=1024, kernel 128x256.
	// Vertical splits are splitPoints on the transposed problem.
	all, n := splitPoints(4096, 1024, 256, 128, 108)
	pts := all[:n]
	for _, p := range pts {
		if p%256 != 0 || p <= 0 || p >= 4096 {
			t.Fatalf("split %d not an aligned interior point", p)
		}
	}
	if len(pts) == 0 {
		t.Fatal("no vertical split candidates")
	}
}

// Property: for random shapes and anchors, split points are always aligned
// interior multiples of the anchor tile.
func TestSplitPointsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		m := int(seed%8000) + 1
		n := int(seed/8000%8000) + 1
		um := 16 * (int(seed/64000000%16) + 1)
		un := 16 * (int(seed/1024000000%16) + 1)
		rows, nr := splitPoints(m, n, um, un, 108)
		for _, p := range rows[:nr] {
			if p <= 0 || p >= m || p%um != 0 {
				return false
			}
		}
		cols, nc := splitPoints(n, m, un, um, 108)
		for _, p := range cols[:nc] {
			if p <= 0 || p >= n || p%un != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
