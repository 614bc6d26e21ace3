package kernel

import (
	"math"
	"testing"
	"testing/quick"

	"mikpoly/internal/hw"
	"mikpoly/internal/tensor"
)

func a100() hw.Hardware { return hw.A100() }

func TestFeasibility(t *testing.T) {
	h := a100()
	good := New(128, 128, 32, DefaultConfig())
	if !good.Feasible(h) {
		t.Fatal("128x128x32 must fit A100 local memory")
	}
	huge := New(512, 512, 512, DefaultConfig())
	if huge.Feasible(h) {
		t.Fatal("512^3 working set must not fit 192KiB")
	}
	if New(0, 16, 16, DefaultConfig()).Feasible(h) {
		t.Fatal("zero dim must be infeasible")
	}
	if New(16, 16, 16, Config{Stages: 5, Vec: 4}).Feasible(h) {
		t.Fatal("stages>4 must be infeasible")
	}
	if New(16, 16, 16, Config{Stages: 2, Vec: 3}).Feasible(h) {
		t.Fatal("vec=3 must be infeasible")
	}
	if New(16, 20, 16, Config{Stages: 2, Vec: 8}).Feasible(h) {
		t.Fatal("vec must divide uN")
	}
}

func TestFootprint(t *testing.T) {
	h := a100()
	k := New(64, 64, 32, Config{Stages: 2, Vec: 4})
	// operands: (64*32 + 32*64) * 2B * 2 stages = 16384 (staging only).
	if got := k.Footprint(h); got != 16384 {
		t.Fatalf("footprint = %d, want 16384", got)
	}
	// accumulator: 64*64 * 4B = 16384 in the register file.
	if got := k.AccumFootprint(h); got != 16384 {
		t.Fatalf("accumulator footprint = %d, want 16384", got)
	}
	huge := New(512, 512, 16, Config{Stages: 2, Vec: 4})
	if huge.Feasible(h) {
		t.Fatal("512x512 accumulator (1 MiB) must not fit the 256 KiB register file")
	}
}

func TestEfficiencyRanges(t *testing.T) {
	h := a100()
	k := New(128, 128, 32, DefaultConfig())
	e := k.Efficiency(h)
	if e <= 0.4 || e > 1 {
		t.Fatalf("efficiency of a good tile = %g, want (0.4, 1]", e)
	}
	if New(512, 512, 512, DefaultConfig()).Efficiency(h) != 0 {
		t.Fatal("infeasible kernel must report zero efficiency")
	}
}

func TestEfficiencyPrefersAlignedTiles(t *testing.T) {
	h := a100()
	aligned := New(128, 128, 32, DefaultConfig())
	ragged := New(120, 120, 24, Config{Stages: 2, Vec: 4})
	if aligned.Efficiency(h) <= ragged.Efficiency(h) {
		t.Fatalf("aligned %g should beat ragged %g", aligned.Efficiency(h), ragged.Efficiency(h))
	}
}

func TestEfficiencyAlignmentIrrelevantOnCUDACores(t *testing.T) {
	h := hw.A100CUDACores()
	// With MMAAlign=1 a ragged tile pays no alignment penalty; only the
	// smaller arithmetic intensity and jitter differ. Allow 15%.
	a := New(120, 120, 24, Config{Stages: 2, Vec: 4}).Efficiency(h)
	b := New(128, 128, 24, Config{Stages: 2, Vec: 4}).Efficiency(h)
	if math.Abs(a-b)/b > 0.15 {
		t.Fatalf("CUDA-core efficiencies diverge too much: %g vs %g", a, b)
	}
}

func TestEfficiencyKneeScalesWithPEWidth(t *testing.T) {
	// A small 16x16x16 tile should look much worse relative to a
	// 128x128x64 tile on the wide NPU cube than on narrow CUDA cores.
	small := Config{Stages: 2, Vec: 4}
	relNPU := New(16, 16, 16, small).Efficiency(hw.Ascend910()) /
		New(128, 128, 64, small).Efficiency(hw.Ascend910())
	relCUDA := New(16, 16, 16, small).Efficiency(hw.A100CUDACores()) /
		New(128, 128, 64, small).Efficiency(hw.A100CUDACores())
	if relNPU >= relCUDA {
		t.Fatalf("small tiles should be relatively worse on NPU: npu=%g cuda=%g", relNPU, relCUDA)
	}
}

func TestPremiumLiftsEfficiencyButCapsAtOne(t *testing.T) {
	h := a100()
	k := New(128, 128, 32, DefaultConfig())
	v := k
	v.Premium = 1.06
	if v.Efficiency(h) <= k.Efficiency(h) {
		t.Fatal("premium must lift efficiency")
	}
	v.Premium = 100
	if v.Efficiency(h) > 1 {
		t.Fatal("efficiency must cap at 1")
	}
}

func TestDeterministicJitter(t *testing.T) {
	h := a100()
	k := New(96, 128, 32, DefaultConfig())
	if k.Efficiency(h) != k.Efficiency(h) {
		t.Fatal("efficiency must be deterministic")
	}
	other := New(96, 128, 48, DefaultConfig())
	if k.Efficiency(h) == other.Efficiency(h) {
		t.Fatal("distinct kernels should not collide exactly (jitter)")
	}
}

func TestInstanceCosts(t *testing.T) {
	h := a100()
	k := New(128, 128, 32, DefaultConfig())
	if got, want := k.InstanceLoadBytes(h), float64((128*32+32*128)*2)/h.L2ReuseFactor; got != want {
		t.Fatalf("load bytes = %g, want %g", got, want)
	}
	if got, want := k.StoreBytes(h), float64(128*128*4); got != want {
		t.Fatalf("store bytes = %g, want %g", got, want)
	}
	c := k.InstanceComputeCycles(h)
	ideal := 2.0 * 128 * 128 * 32 / h.FlopsPerCyclePE
	if c < ideal {
		t.Fatalf("compute cycles %g below ideal %g", c, ideal)
	}
	if c > 10*ideal {
		t.Fatalf("compute cycles %g implausibly high vs ideal %g", c, ideal)
	}
}

func TestPipelinedTaskScalesWithT(t *testing.T) {
	h := a100()
	k := New(128, 128, 32, DefaultConfig())
	t1 := k.PipelinedTask(h, 1)
	t4 := k.PipelinedTask(h, 4)
	if math.Abs(t4.ComputeCycles-4*t1.ComputeCycles) > 1e-6 {
		t.Fatal("compute must scale linearly with t")
	}
	wantMem := 4*k.InstanceLoadBytes(h) + k.StoreBytes(h)
	if t4.MemBytes != wantMem {
		t.Fatalf("mem bytes = %g, want %g", t4.MemBytes, wantMem)
	}
	if t1.StartupCycles != t4.StartupCycles {
		t.Fatal("startup must be t-independent")
	}
}

func TestPipelinedTaskRejectsZeroT(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(16, 16, 16, DefaultConfig()).PipelinedTask(a100(), 0)
}

func TestDeeperStagesReduceStartup(t *testing.T) {
	h := a100()
	s1 := New(64, 64, 32, Config{Stages: 1, Vec: 4}).StartupCycles(h)
	s4 := New(64, 64, 32, Config{Stages: 4, Vec: 4}).StartupCycles(h)
	if s4 >= s1 {
		t.Fatalf("deeper pipeline should reduce startup: s1=%g s4=%g", s1, s4)
	}
}

func TestExecuteMatchesReferenceGemm(t *testing.T) {
	k := New(8, 12, 4, Config{Stages: 2, Vec: 4})
	a := tensor.RandomMatrix(8, 4, 21)
	b := tensor.RandomMatrix(4, 12, 22)
	dst := tensor.NewMatrix(8, 12)
	k.Execute(dst, a, b)
	want := tensor.Gemm(a, b)
	if !tensor.AllClose(dst, want, 1e-5) {
		t.Fatal("kernel execution differs from reference GEMM")
	}
	// Accumulation: run again, expect doubling.
	k.Execute(dst, a, b)
	for i := 0; i < 8; i++ {
		for j := 0; j < 12; j++ {
			if d := float64(dst.At(i, j) - 2*want.At(i, j)); math.Abs(d) > 1e-4 {
				t.Fatalf("accumulation broken at (%d,%d)", i, j)
			}
		}
	}
}

func TestExecuteShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	k := New(8, 8, 8, DefaultConfig())
	k.Execute(tensor.NewMatrix(8, 8), tensor.NewMatrix(8, 7), tensor.NewMatrix(8, 8))
}

// Property: for any feasible kernel and small t, the pipelined task is
// self-consistent: positive compute, mem >= store bytes, finite cost.
func TestPipelinedTaskProperty(t *testing.T) {
	h := a100()
	f := func(seed uint64) bool {
		um := 16 * (int(seed%8) + 1)
		un := 16 * (int(seed/8%8) + 1)
		uk := 16 * (int(seed/64%4) + 1)
		k := New(um, un, uk, Config{Stages: int(seed/256%3) + 1, Vec: []int{1, 2, 4, 8}[seed/1024%4]})
		if !k.Feasible(h) {
			return true
		}
		tk := k.PipelinedTask(h, int(seed/4096%7)+1)
		return tk.ComputeCycles > 0 && !math.IsInf(tk.ComputeCycles, 1) &&
			tk.MemBytes >= k.StoreBytes(h) && tk.StartupCycles >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: Execute on views of padded operands equals reference on the
// original region — the contract local padding relies on.
func TestExecutePaddedViewsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		um := int(seed%6)*4 + 4
		un := int(seed/6%6)*4 + 4
		uk := int(seed/36%6) + 1
		k := New(um, un, uk, Config{Stages: 2, Vec: 4})
		a := tensor.RandomMatrix(um+3, uk+2, seed|1)
		b := tensor.RandomMatrix(uk+2, un+1, seed|2)
		dst := tensor.NewMatrix(um, un)
		var av, bv tensor.Matrix
		a.ViewInto(&av, 0, 0, um, uk)
		b.ViewInto(&bv, 0, 0, uk, un)
		k.Execute(dst, &av, &bv)
		want := tensor.Gemm(&av, &bv)
		return tensor.AllClose(dst, want, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: efficiency is monotone in the hand-tuning premium and bounded
// in (0, 1] for feasible kernels.
func TestEfficiencyPremiumMonotoneProperty(t *testing.T) {
	h := a100()
	f := func(seed uint64) bool {
		um := 16 * (int(seed%8) + 1)
		un := 16 * (int(seed/8%8) + 1)
		uk := 16 * (int(seed/64%4) + 1)
		k := New(um, un, uk, Config{Stages: int(seed/256%4) + 1, Vec: []int{1, 2, 4, 8}[seed/1024%4]})
		if !k.Feasible(h) {
			return true
		}
		base := k.Efficiency(h)
		if base <= 0 || base > 1 {
			return false
		}
		boosted := k
		boosted.Premium = 1.1
		return boosted.Efficiency(h) >= base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: the pipelined-task cost at fair-share bandwidth is monotone in
// tile volume for aligned cubes (bigger tiles do strictly more work).
func TestTaskCostMonotoneInVolume(t *testing.T) {
	h := a100()
	prev := 0.0
	for _, d := range []int{16, 32, 48, 64, 96} {
		k := New(d, d, d, Config{Stages: 2, Vec: 4})
		if !k.Feasible(h) {
			break
		}
		task := k.PipelinedTask(h, 4)
		cost := task.StartupCycles + task.ComputeCycles + task.MemBytes/h.FairShareBandwidth()
		if cost <= prev {
			t.Fatalf("task cost not increasing at d=%d", d)
		}
		prev = cost
	}
}

// DefaultConfig is a safe middle-of-the-road schedule.
func DefaultConfig() Config { return Config{Stages: 2, Vec: 4} }
