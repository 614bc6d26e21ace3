package poly

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"mikpoly/internal/tensor"
)

// planBenchShapes is a small pinned sweep exercising ragged BERT-style and
// Llama-decode GEMM shapes.
var planBenchShapes = []tensor.GemmShape{
	{M: 384, N: 768, K: 768},
	{M: 1, N: 4096, K: 4096},
	{M: 100, N: 60, K: 40},
	{M: 4000, N: 1024, K: 512},
	{M: 17, N: 4096, K: 11008},
	{M: 509, N: 3072, K: 768},
}

func BenchmarkPlanGPU(b *testing.B) {
	gpu, _ := libs(b)
	p := NewPlanner(gpu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := planBenchShapes[i%len(planBenchShapes)]
		if _, _, err := p.Plan(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanNPU(b *testing.B) {
	_, npu := libs(b)
	p := NewPlanner(npu)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := planBenchShapes[i%len(planBenchShapes)]
		if _, _, err := p.Plan(s); err != nil {
			b.Fatal(err)
		}
	}
}

// determinismShapes is the pinned suite plus seeded random shapes the
// concurrency and allocation-budget tests sweep.
func determinismShapes(seed int64, extra int) []tensor.GemmShape {
	shapes := []tensor.GemmShape{
		{M: 1, N: 1, K: 1},
		{M: 384, N: 768, K: 768},
		{M: 1, N: 4096, K: 4096},
		{M: 100, N: 60, K: 40},
		{M: 4000, N: 1024, K: 512},
		{M: 17, N: 4096, K: 11008},
		{M: 509, N: 3072, K: 768},
		{M: 105, N: 1024, K: 12544},
		{M: 33, N: 17, K: 129},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < extra; i++ {
		shapes = append(shapes, tensor.GemmShape{
			M: 1 + rng.Intn(4096), N: 1 + rng.Intn(4096), K: 1 + rng.Intn(16384),
		})
	}
	return shapes
}

// TestPlanConcurrentSameShape drives many goroutines through one planner at
// once (the compiler's singleflight dedupes per shape, not across shapes),
// asserting every result matches a plan made alone. Run under -race in CI,
// this is the planner's concurrency test: the scratch pool is shared by every
// caller.
func TestPlanConcurrentSameShape(t *testing.T) {
	_, npu := libs(t)
	shapes := determinismShapes(3, 6)
	want := make([]*Program, len(shapes))
	alone := NewPlanner(npu)
	for i, s := range shapes {
		prog, _, err := alone.Plan(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = prog
	}
	shared := NewPlanner(npu)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			for i, s := range shapes {
				prog, _, err := shared.Plan(s)
				if err != nil {
					done <- err
					return
				}
				if !reflect.DeepEqual(prog.Regions, want[i].Regions) {
					done <- errors.New("concurrent plan diverged from the plan made alone")
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// coldShapes is a seeded stream of shapes; successive draws are, for all
// practical purposes, shapes the process has never planned.
func coldShapes(seed int64) func() tensor.GemmShape {
	rng := rand.New(rand.NewSource(seed))
	return func() tensor.GemmShape {
		return tensor.GemmShape{M: 1 + rng.Intn(8192), N: 1 + rng.Intn(8192), K: 1 + rng.Intn(16384)}
	}
}

// TestPlanAllocationBudget pins the allocation count of planning a shape
// never seen before — the only kind of plan a serving process pays for, since
// core caches the rest. A plan may materialize the winning program and
// essentially nothing else. The budget leaves headroom over the measured 2
// (the pool drops a quarter of its Puts under -race) while still failing on
// any reintroduced per-candidate or per-boundary churn.
func TestPlanAllocationBudget(t *testing.T) {
	gpu, npu := libs(t)
	const perRun = 10
	for _, tc := range []struct {
		name string
		p    *Planner
	}{
		{"gpu", NewPlanner(gpu)},
		{"npu", NewPlanner(npu)},
	} {
		next := coldShapes(9)
		avg := testing.AllocsPerRun(20, func() {
			for i := 0; i < perRun; i++ {
				if _, _, err := tc.p.Plan(next()); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%s: %.2f allocs per cold plan", tc.name, avg/perRun)
		if perPlan := avg / perRun; perPlan > 8 {
			t.Fatalf("%s: %0.1f allocs per cold plan, budget 8", tc.name, perPlan)
		}
	}
}

// TestPlanScratchBounded: planning a long stream of distinct shapes leaves
// nothing behind. The package keeps no state between plans but the scratch
// pool, so the live heap after 10 000 cold plans must sit where it sat after
// the first few.
func TestPlanScratchBounded(t *testing.T) {
	_, npu := libs(t)
	p := NewPlanner(npu)
	next := coldShapes(31)
	live := func(plans int) uint64 {
		for i := 0; i < plans; i++ {
			if _, _, err := p.Plan(next()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := live(100)
	after := live(10000)
	if after > before+256<<10 {
		t.Fatalf("live heap grew %d KiB over 10 000 cold plans", (after-before)>>10)
	}
}

// TestPlanPatternIConcurrentWithPlan: PlanPatternI on a planner that other
// goroutines are planning on (core.Compiler.Planner() hands out exactly that
// handle) must neither race with them nor restrict their search to Pattern I.
func TestPlanPatternIConcurrentWithPlan(t *testing.T) {
	gpu, _ := libs(t)
	shape := tensor.GemmShape{M: 509, N: 3072, K: 768}
	want, _, err := NewPlanner(gpu).Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	if want.Pattern == PatternI {
		t.Fatalf("test shape %v must not be won by Pattern I", shape)
	}
	shared := NewPlanner(gpu)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, err := shared.PlanPatternI(shape); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 300; i++ {
		prog, _, err := shared.Plan(shape)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Pattern != want.Pattern || !reflect.DeepEqual(prog.Regions, want.Regions) {
			t.Fatalf("plan %d concurrent with PlanPatternI chose %s, alone %s", i, prog, want)
		}
	}
	wg.Wait()
}
