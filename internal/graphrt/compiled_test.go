package graphrt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mikpoly/internal/core"
	"mikpoly/internal/graphopt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// These tests hold the compiled table to its one promise: a replayed
// execution is indistinguishable — report, cumulative stats and health
// registry, bit for bit — from interpreting the graph again, and an entry
// that no longer describes what the interpreter would do is never replayed.

// pair is two runtimes built alike over one library, each with its own
// compiler and health registry; ref has the compiled table switched off.
type pair struct {
	rt, ref *Runtime
}

func newPair(t *testing.T, cfg Config, withHealth bool, opts ...core.Option) pair {
	t.Helper()
	build := func() *Runtime {
		lib, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256})
		if err != nil {
			t.Fatal(err)
		}
		c := cfg
		if withHealth {
			c.Health = health.NewRegistry(hw.A100().NumPEs, health.Config{})
		}
		return New(core.NewCompilerFromLibrary(lib, opts...), c)
	}
	p := pair{rt: build(), ref: build()}
	p.ref.noCompile = true
	return p
}

// each applies fn to both runtimes.
func (p pair) each(fn func(rt *Runtime)) {
	fn(p.rt)
	fn(p.ref)
}

// timeless strips what depends on the wall clock: whether and how long an
// execution waited for a plan.
func timeless(rep Report) Report {
	rep.Stalls, rep.PlanWall, rep.StallWall, rep.HiddenWall = 0, 0, 0, 0
	return rep
}

// execute runs g on both runtimes and fails unless reports and errors agree.
// It returns rt's report and whether rt went through its interpreter (1) or
// replayed (0).
func (p pair) execute(t *testing.T, ctx context.Context, g nn.Graph, salt uint64) (Report, int) {
	t.Helper()
	before := p.rt.interpreted.Load()
	got, err := p.rt.ExecuteSalted(ctx, g, salt)
	want, werr := p.ref.ExecuteSalted(ctx, g, salt)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
		t.Fatalf("%s salt %d: error %v, interpreted %v", g.Name, salt, err, werr)
	}
	if !reflect.DeepEqual(timeless(got), timeless(want)) {
		t.Fatalf("%s salt %d:\n     got %+v\ninterpreted %+v", g.Name, salt, got, want)
	}
	for _, f := range [][2]float64{{got.Cycles, want.Cycles}, {got.GemmCycles, want.GemmCycles},
		{got.OtherCycles, want.OtherCycles}, {got.SpillCycles, want.SpillCycles}} {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Fatalf("%s salt %d: cycles %v, interpreted %v", g.Name, salt, f[0], f[1])
		}
	}
	return got, int(p.rt.interpreted.Load() - before)
}

// sameState fails unless both runtimes accumulated the same cumulative stats
// and fed their health registries the same observations.
func (p pair) sameState(t *testing.T) {
	t.Helper()
	got, want := p.rt.Stats(), p.ref.Stats()
	if len(got.PEBusy) != len(want.PEBusy) {
		t.Fatalf("PEBusy has %d PEs, interpreted %d", len(got.PEBusy), len(want.PEBusy))
	}
	for i := range got.PEBusy {
		if math.Float64bits(got.PEBusy[i]) != math.Float64bits(want.PEBusy[i]) {
			t.Fatalf("PEBusy[%d] = %v, interpreted %v", i, got.PEBusy[i], want.PEBusy[i])
		}
	}
	if math.Float64bits(got.Cycles) != math.Float64bits(want.Cycles) ||
		math.Float64bits(got.GemmStageCycles) != math.Float64bits(want.GemmStageCycles) ||
		math.Float64bits(got.SpillBytes) != math.Float64bits(want.SpillBytes) {
		t.Fatalf("cycles %v / stage cycles %v / spill %v, interpreted %v / %v / %v",
			got.Cycles, got.GemmStageCycles, got.SpillBytes, want.Cycles, want.GemmStageCycles, want.SpillBytes)
	}
	got.PEBusy, want.PEBusy = nil, nil
	got.Stalls, got.PlanWall, got.StallWall, got.HiddenWall = 0, 0, 0, 0
	want.Stalls, want.PlanWall, want.StallWall, want.HiddenWall = 0, 0, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats\n     got %+v\ninterpreted %+v", got, want)
	}
	if p.rt.cfg.Health != nil {
		if got, want := p.rt.cfg.Health.Stats(), p.ref.cfg.Health.Stats(); got != want {
			t.Fatalf("health stats %+v, interpreted %+v", got, want)
		}
		if got, want := p.rt.cfg.Health.View(), p.ref.cfg.Health.View(); !reflect.DeepEqual(got, want) {
			t.Fatalf("health view %+v, interpreted %+v", got, want)
		}
	}
}

// randomDAG draws a valid graph of n ops: GEMMs over a small shape pool (so
// stages repeat), convolutions, bandwidth-bound runs, instance counts above 1,
// and Inputs edges that point forward and backward in the op list — nil (the
// chain default) where that keeps the graph acyclic.
func randomDAG(rng *rand.Rand, name string, n int) nn.Graph {
	shapes := []tensor.GemmShape{{M: 64, N: 96, K: 64}, {M: 128, N: 128, K: 32}, {M: 200, N: 72, K: 48}, {M: 32, N: 256, K: 64}}
	convs := []tensor.ConvShape{
		{Batch: 1, InC: 8, InH: 14, InW: 14, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 2, InC: 4, InH: 9, InW: 9, OutC: 8, KH: 1, KW: 1, Stride: 2},
	}
	rank := rng.Perm(n) // an edge d → i needs rank[d] < rank[i]
	g := nn.Graph{Name: name, Ops: make([]nn.Op, n)}
	for i := range g.Ops {
		op := nn.Op{Name: name, Count: 1 + rng.Intn(3)}
		switch rng.Intn(6) {
		case 0, 1:
			op.Kind, op.OtherBytes = nn.OpOther, float64(rng.Intn(1<<20))
			if rng.Intn(2) == 0 {
				op.Elementwise = "relu"
			}
		case 2:
			op.Kind, op.Conv = nn.OpConv, convs[rng.Intn(len(convs))]
			op.Gemm = op.Conv.GemmShape()
		default:
			op.Kind, op.Gemm = nn.OpGemm, shapes[rng.Intn(len(shapes))]
		}
		if i == 0 || rank[i-1] > rank[i] || rng.Intn(3) > 0 {
			op.Inputs = []int{}
			for d := range g.Ops {
				if rank[d] < rank[i] && rng.Intn(n) < 2 {
					op.Inputs = append(op.Inputs, d)
				}
			}
		}
		g.Ops[i] = op
	}
	return g
}

func TestCompiledMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(20241003))
	graphs := []nn.Graph{
		nn.Transformer(nn.BERTBaseConfig, 1, 1), nn.Transformer(nn.BERTBaseConfig, 37, 1),
		nn.Transformer(nn.BERTBaseConfig, 128, 1),
		nn.Llama2Decode(1, 128), nn.Llama2Decode(4, 256), nn.Llama2Prefill(1, 48),
	}
	for i := 0; i < 8; i++ {
		g := randomDAG(rng, "dag", 4+rng.Intn(30))
		if err := g.Validate(); err != nil {
			t.Fatalf("generator built an invalid graph: %v", err)
		}
		graphs = append(graphs, g)
	}
	for _, c := range []struct {
		name   string
		cfg    Config
		health bool
	}{
		{"plan-ahead+health", Config{PlanAhead: 2}, true},
		{"sequential", Config{}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newPair(t, c.cfg, c.health)
			replays := 0
			for step := 0; step < 120; step++ {
				g := graphs[rng.Intn(len(graphs))]
				_, interpreted := p.execute(t, context.Background(), g, uint64(rng.Intn(2)))
				replays += 1 - interpreted
			}
			p.sameState(t)
			if replays < 60 {
				t.Fatalf("only %d of 120 executions were replayed; the test compares the interpreter with itself", replays)
			}
		})
	}
}

// compile executes g until rt replays it, and fails if it never does.
func (p pair) compile(t *testing.T, g nn.Graph, salt uint64) Report {
	t.Helper()
	for i := 0; i < 2; i++ {
		if rep, interpreted := p.execute(t, context.Background(), g, salt); interpreted == 0 {
			return rep
		}
	}
	t.Fatalf("%s is still interpreted on its third execution", g.Name)
	return Report{}
}

// mustInterpret executes g once and fails unless rt went through the
// interpreter.
func (p pair) mustInterpret(t *testing.T, why string, g nn.Graph, salt uint64) Report {
	t.Helper()
	rep, interpreted := p.execute(t, context.Background(), g, salt)
	if interpreted != 1 {
		t.Fatalf("%s: %s was replayed from the compiled table", why, g.Name)
	}
	return rep
}

func TestCompiledEntryMissesWhenTheWorldChanges(t *testing.T) {
	g := nn.Transformer(nn.BERTBaseConfig, 37, 1)

	t.Run("quarantine", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2}, true)
		healthy := p.compile(t, g, 0)
		p.each(func(rt *Runtime) {
			reg := rt.cfg.Health
			reg.ObserveResult(reg.View(), sim.Result{FaultedTasks: 1, DeadPEs: []int{5}})
		})
		degraded := p.mustInterpret(t, "after PE 5 was quarantined", g, 0)
		if degraded.Cycles == healthy.Cycles {
			t.Fatalf("%v cycles on the full device and with a PE quarantined", healthy.Cycles)
		}
		p.compile(t, g, 0) // and the degraded view gets its own entry
		p.sameState(t)
	})

	t.Run("pending health evidence", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2}, true)
		p.compile(t, g, 0)
		p.each(func(rt *Runtime) {
			reg := rt.cfg.Health
			reg.ObserveResult(reg.View(), sim.Result{FaultedTasks: 1, PEFaults: []int{0, 0, 1}, PEBusy: []float64{1, 1, 1}})
		})
		// PE 2 carries a streak the graph's clean stages must reset one by one.
		p.mustInterpret(t, "with a fault streak pending", g, 0)
		p.compile(t, g, 0)
		p.sameState(t)
	})

	t.Run("library swap", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2}, true)
		p.compile(t, g, 0)
		other, err := core.SharedLibrary(hw.A100(), tune.Options{NGen: 6, NSyn: 9, NMik: 5, NPred: 256})
		if err != nil {
			t.Fatal(err)
		}
		orig := p.rt.comp.Library()
		p.each(func(rt *Runtime) { rt.comp.SetLibrary(other) })
		p.each(func(rt *Runtime) { rt.comp.SetLibrary(orig) })
		// Swapped away and back with nothing run in between: the plan cache
		// rehits the original programs, and so does the table.
		if _, interpreted := p.execute(t, context.Background(), g, 0); interpreted != 0 {
			t.Fatal("the original library's entry did not rehit after swapping back")
		}
		p.each(func(rt *Runtime) { rt.comp.SetLibrary(other) })
		p.mustInterpret(t, "under another kernel library", g, 0)
		p.compile(t, g, 0)
		p.each(func(rt *Runtime) { rt.comp.SetLibrary(orig) })
		// The entry now holds the other library's programs. Whether it is
		// replayed depends on whether both libraries chose the same programs,
		// content for content; either way the answer is the interpreter's.
		p.execute(t, context.Background(), g, 0)
		p.sameState(t)
	})

	t.Run("plan cache", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2}, true)
		p.compile(t, g, 0)
		p.each(func(rt *Runtime) { rt.comp.Invalidate(g.Ops[0].Gemm) })
		p.mustInterpret(t, "after one shape was invalidated", g, 0)
		p.compile(t, g, 0)
		p.each(func(rt *Runtime) { rt.comp.ClearCache() })
		p.mustInterpret(t, "after the plan cache was cleared", g, 0)
		p.sameState(t)

		one := newPair(t, Config{PlanAhead: 2}, true, core.WithCacheCapacity(1))
		for i := 0; i < 3; i++ {
			one.mustInterpret(t, "over a plan cache that holds one program", g, 0)
		}
		one.sameState(t)
	})

	t.Run("salt", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2}, true)
		p.compile(t, g, 0)
		p.mustInterpret(t, "under a salt it was not compiled for", g, 7)
		p.compile(t, g, 7)
		p.compile(t, g, 0)
		p.sameState(t)
	})

	t.Run("mutated in place", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2}, true)
		g := nn.Transformer(nn.BERTBaseConfig, 37, 1)
		before := p.compile(t, g, 0)
		g.Ops[1].Count++ // same Ops slice, same name
		after := p.mustInterpret(t, "with one op's count changed in place", g, 0)
		if after.Cycles == before.Cycles {
			t.Fatalf("%v cycles before and after the mutation", before.Cycles)
		}
		p.sameState(t)
	})

	t.Run("degraded plans", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2, PlanTimeout: -1}, true)
		for i := 0; i < 3; i++ {
			if rep := p.mustInterpret(t, "with every plan degraded", g, 0); rep.Degraded == 0 {
				t.Fatal("PlanTimeout < 0 degraded nothing")
			}
		}
		if n := len(p.rt.compiled); n != 0 {
			t.Fatalf("%d degraded executions were stored", n)
		}
		p.sameState(t)
	})

	t.Run("transient fault", func(t *testing.T) {
		p := newPair(t, Config{}, true)
		p.each(func(rt *Runtime) {
			fs := &faultScript{decide: func(call int, _ health.View, _ uint64) sim.Result {
				if call == 1 { // stage 1's first run
					return sim.Result{FaultedTasks: 2}
				}
				return sim.Result{}
			}}
			rt.SetSimulator(fs.simFn)
		})
		g := chainGraph(3)
		for i := 0; i < 3; i++ {
			// The dirty result is memoized like any other, so every run meets
			// it again and heals that one stage again.
			if rep := p.mustInterpret(t, "with a faulted stage", g, 0); rep.RecoveredStages != 1 {
				t.Fatalf("run %d recovered %d stages, want the faulted one alone", i, rep.RecoveredStages)
			}
		}
		if n := len(p.rt.compiled); n != 0 {
			t.Fatalf("%d executions with a recovered stage were stored", n)
		}
		p.sameState(t)
	})

	t.Run("cancelled", func(t *testing.T) {
		p := newPair(t, Config{PlanAhead: 2}, true)
		p.compile(t, g, 0)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		graphs := p.rt.Stats().Graphs
		if _, interpreted := p.execute(t, ctx, g, 0); interpreted != 1 {
			t.Fatal("a cancelled execution was replayed")
		}
		if _, err := p.rt.Execute(ctx, g); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled execution returned %v", err)
		}
		if got := p.rt.Stats().Graphs; got != graphs {
			t.Fatalf("%d graphs completed under a cancelled context", got-graphs)
		}
		if _, err := p.ref.Execute(ctx, g); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled interpretation returned %v", err)
		}
		p.sameState(t)
	})
}

// TestGraphDigestCoversEveryField mutates, one at a time, every field the
// digest is documented to cover, in a graph that is otherwise left alone: the
// digest must change every time, and names must not matter.
func TestGraphDigestCoversEveryField(t *testing.T) {
	build := func() nn.Graph {
		conv := tensor.ConvShape{Batch: 1, InC: 8, InH: 14, InW: 14, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
		return nn.Graph{Name: "g", Ops: []nn.Op{
			{Name: "a", Kind: nn.OpGemm, Gemm: tensor.GemmShape{M: 64, N: 96, K: 32}, Count: 1, Inputs: []int{}},
			{Name: "b", Kind: nn.OpConv, Conv: conv, Gemm: conv.GemmShape(), Count: 2, Inputs: []int{0}},
			{Name: "c", Kind: nn.OpOther, OtherBytes: 4096, Elementwise: "relu", DType: "f16", Count: 1, Inputs: []int{0, 1}},
			{Name: "d", Kind: nn.OpGemm, Gemm: tensor.GemmShape{M: 64, N: 32, K: 96}, Count: 1},
		}}
	}
	base := digestGraph(build())
	renamed := build()
	renamed.Name = "other"
	for i := range renamed.Ops {
		renamed.Ops[i].Name += "'"
	}
	if digestGraph(renamed) != base {
		t.Fatal("the digest depends on a name")
	}
	for name, mutate := range map[string]func(g *nn.Graph){
		"Kind":           func(g *nn.Graph) { g.Ops[3].Kind = nn.OpOther },
		"Gemm.M":         func(g *nn.Graph) { g.Ops[0].Gemm.M++ },
		"Gemm.N":         func(g *nn.Graph) { g.Ops[0].Gemm.N++ },
		"Gemm.K":         func(g *nn.Graph) { g.Ops[0].Gemm.K++ },
		"M<->N":          func(g *nn.Graph) { s := &g.Ops[0].Gemm; s.M, s.N = s.N, s.M },
		"Conv.Batch":     func(g *nn.Graph) { g.Ops[1].Conv.Batch++ },
		"Conv.InC":       func(g *nn.Graph) { g.Ops[1].Conv.InC++ },
		"Conv.InH":       func(g *nn.Graph) { g.Ops[1].Conv.InH++ },
		"Conv.InW":       func(g *nn.Graph) { g.Ops[1].Conv.InW++ },
		"Conv.OutC":      func(g *nn.Graph) { g.Ops[1].Conv.OutC++ },
		"Conv.KH":        func(g *nn.Graph) { g.Ops[1].Conv.KH++ },
		"Conv.KW":        func(g *nn.Graph) { g.Ops[1].Conv.KW++ },
		"Conv.Stride":    func(g *nn.Graph) { g.Ops[1].Conv.Stride++ },
		"Conv.Pad":       func(g *nn.Graph) { g.Ops[1].Conv.Pad++ },
		"Count":          func(g *nn.Graph) { g.Ops[1].Count++ },
		"OtherBytes":     func(g *nn.Graph) { g.Ops[2].OtherBytes = math.Nextafter(4096, 8192) },
		"Elementwise":    func(g *nn.Graph) { g.Ops[2].Elementwise = "gelu" },
		"DType":          func(g *nn.Graph) { g.Ops[2].DType = "f32" },
		"string border":  func(g *nn.Graph) { g.Ops[2].Elementwise, g.Ops[2].DType = "reluf", "16" },
		"Inputs nil":     func(g *nn.Graph) { g.Ops[0].Inputs = nil },
		"Inputs empty":   func(g *nn.Graph) { g.Ops[3].Inputs = []int{} },
		"Inputs chain":   func(g *nn.Graph) { g.Ops[3].Inputs = []int{2} }, // what nil means there
		"Inputs element": func(g *nn.Graph) { g.Ops[2].Inputs[1] = 0 },
		"Inputs order":   func(g *nn.Graph) { g.Ops[2].Inputs = []int{1, 0} },
		"Inputs border":  func(g *nn.Graph) { g.Ops[1].Inputs, g.Ops[2].Inputs = []int{0, 0}, []int{1} },
		"op order":       func(g *nn.Graph) { g.Ops[0], g.Ops[3] = g.Ops[3], g.Ops[0] },
		"op dropped":     func(g *nn.Graph) { g.Ops = g.Ops[:3] },
	} {
		g := build()
		mutate(&g)
		if digestGraph(g) == base {
			t.Errorf("%s: mutated graph kept its digest", name)
		}
	}
}

// TestCompiledReplayConcurrent: goroutines that interpret, store and replay
// one graph at once (run with -race) all see the same report, and every
// execution is counted once. (Per-PE sums are left out: interpretations that
// overlap fold their stages in an order a sequential run does not have.)
func TestCompiledReplayConcurrent(t *testing.T) {
	p := newPair(t, Config{PlanAhead: 2}, true)
	g := nn.Llama2Decode(2, 128)
	want, err := p.ref.Execute(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	const workers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				rep, err := p.rt.Execute(context.Background(), g)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(timeless(rep), timeless(want)) {
					t.Errorf("got %+v, want %+v", rep, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	const n = workers * each
	st := p.rt.Stats()
	if st.Graphs != n || st.Stages != int64(n*want.Stages) || st.Plans != int64(n*want.Plans) {
		t.Fatalf("%d graphs, %d stages, %d plans counted for %d executions of %+v", st.Graphs, st.Stages, st.Plans, n, want)
	}
	var cycles float64
	for i := 0; i < n; i++ {
		cycles += want.Cycles
	}
	if math.Float64bits(st.Cycles) != math.Float64bits(cycles) {
		t.Fatalf("cumulative cycles %v, want %v", st.Cycles, cycles)
	}
	launched := 0
	for _, op := range g.Ops {
		if op.Kind != nn.OpOther {
			launched++ // a Llama step is a chain: one launched stage per GEMM
		}
	}
	if got := p.rt.cfg.Health.Stats().Observations; got != uint64(n*launched) {
		t.Fatalf("%d health observations for %d executions of %d launched stages", got, n, launched)
	}
	if n := p.rt.interpreted.Load(); n > workers {
		t.Fatalf("%d of %d executions were interpreted", n, workers*each)
	}
}

// TestExecuteLeavesGraphsAlone: Llama step graphs share their op names and
// Inputs edges with a skeleton built once, so nothing that reads a graph may
// write through them.
func TestExecuteLeavesGraphsAlone(t *testing.T) {
	first, second := nn.Llama2Decode(2, 256), nn.Llama2Decode(2, 256)
	if err := first.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := first.Stages(); err != nil {
		t.Fatal(err)
	}
	first.Consumers()
	graphopt.DetectChains(first, hw.A100())
	rt := testRuntime(t, Config{PlanAhead: 2})
	if _, err := rt.Execute(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	// A prefill graph of the same token count differs only in its name and
	// its attention traffic, so it shows a write through the shared parts too.
	for _, g := range []nn.Graph{first, second} {
		if fresh := nn.Llama2Decode(2, 256); !reflect.DeepEqual(g, fresh) {
			t.Fatal("a step graph no longer equals a fresh build after another was validated, scheduled and executed")
		}
	}
}

// TestCompiledTableIsBounded: a stream of novel graphs cannot grow the table
// past its cap.
func TestCompiledTableIsBounded(t *testing.T) {
	rt := fastRuntime(t, Config{PlanAhead: 2})
	g := chainGraph(2)
	for i := 0; i < 2*compiledCap; i++ {
		g.Ops[1].OtherBytes = float64(i) // not read for a GEMM, but part of the content
		if _, err := rt.Execute(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		if n := len(rt.compiled); n > compiledCap {
			t.Fatalf("table holds %d entries, cap %d", n, compiledCap)
		}
	}
}

// graphFromBytes decodes fuzz input into a graph, not necessarily a valid
// one: every byte steers one field the digest covers.
func graphFromBytes(data []byte) nn.Graph {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	g := nn.Graph{Name: "fuzz"}
	for len(data) > 0 {
		op := nn.Op{Kind: nn.OpKind(next() % 3), Count: next() % 4}
		op.Gemm = tensor.GemmShape{M: next(), N: next(), K: next()}
		if op.Kind == nn.OpConv {
			op.Conv = tensor.ConvShape{Batch: next() % 3, InC: next() % 5, InH: next() % 9, InW: next() % 9,
				OutC: next() % 5, KH: next() % 4, KW: next() % 4, Stride: next() % 3, Pad: next() % 2}
		}
		op.OtherBytes = float64(next())
		op.Elementwise = []string{"", "relu", "gelu", "r"}[next()%4]
		op.DType = []string{"", "f16", "f32", "elu"}[next()%4]
		if n := next() % 5; n > 0 {
			op.Inputs = make([]int, n-1)
			for i := range op.Inputs {
				op.Inputs[i] = next() % 8
			}
		}
		g.Ops = append(g.Ops, op)
	}
	return g
}

// sameContent compares two graphs in exactly the fields digestGraph covers.
func sameContent(a, b nn.Graph) bool {
	if len(a.Ops) != len(b.Ops) {
		return false
	}
	for i := range a.Ops {
		x, y := a.Ops[i], b.Ops[i]
		if x.Kind == nn.OpConv && x.Conv != y.Conv {
			return false
		}
		if x.Kind != y.Kind || x.Gemm != y.Gemm || x.Count != y.Count ||
			math.Float64bits(x.OtherBytes) != math.Float64bits(y.OtherBytes) ||
			x.Elementwise != y.Elementwise || x.DType != y.DType ||
			(x.Inputs == nil) != (y.Inputs == nil) || !reflect.DeepEqual(x.Inputs, y.Inputs) {
			return false
		}
	}
	return true
}

// FuzzGraphDigest: two graphs with one digest are equal in every field the
// compiled table relies on the digest for.
func FuzzGraphDigest(f *testing.F) {
	f.Add([]byte{0, 1, 64, 96, 32, 0, 0, 0, 0}, []byte{0, 1, 64, 96, 32, 0, 0, 0, 1})
	f.Add([]byte{2, 1, 0, 0, 0, 9, 1, 0, 2, 3, 4}, []byte{2, 1, 0, 0, 0, 9, 1, 0, 2, 4, 3})
	f.Add([]byte{1, 2, 8, 8, 8, 1, 2, 3, 3, 2, 1, 1, 1, 0, 7, 0, 0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		ga, gb := graphFromBytes(a), graphFromBytes(b)
		if same := sameContent(ga, gb); (digestGraph(ga) == digestGraph(gb)) != same {
			t.Fatalf("content equal: %v, digests %x and %x\n%+v\n%+v", same, digestGraph(ga), digestGraph(gb), ga, gb)
		}
	})
}
