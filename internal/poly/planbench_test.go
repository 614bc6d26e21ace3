package poly

import (
	"errors"
	"math/rand"
	"reflect"
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
// this is the planner's concurrency test: the skeleton memo and the scratch
// pool are shared by every caller.
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

// TestPlanAllocationBudget pins the allocation count of the steady-state
// hot path: after warmup (memo and pools populated), a plan may materialize
// the winning program and essentially nothing else. The pre-optimization
// planner spent 211 (GPU) / 1854 (NPU) allocs per plan; the budget leaves
// headroom over the measured 2 while still failing on any reintroduced
// per-candidate churn.
func TestPlanAllocationBudget(t *testing.T) {
	gpu, npu := libs(t)
	shapes := determinismShapes(9, 10)
	for _, tc := range []struct {
		name string
		p    *Planner
	}{
		{"gpu", NewPlanner(gpu)},
		{"npu", NewPlanner(npu)},
	} {
		for _, s := range shapes { // warm the skeleton memo
			if _, _, err := tc.p.Plan(s); err != nil {
				t.Fatal(err)
			}
		}
		avg := testing.AllocsPerRun(20, func() {
			for _, s := range shapes {
				if _, _, err := tc.p.Plan(s); err != nil {
					t.Fatal(err)
				}
			}
		})
		perPlan := avg / float64(len(shapes))
		if perPlan > 8 {
			t.Fatalf("%s: %0.1f allocs per plan, budget 8", tc.name, perPlan)
		}
	}
}
