package hw

import (
	"math"
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, h := range []Hardware{A100(), A100CUDACores(), Ascend910()} {
		if err := h.Validate(); err != nil {
			t.Errorf("%s: %v", h.Name, err)
		}
		if h.GlobalMemBytes <= 0 {
			t.Errorf("%s: preset must declare M_global capacity", h.Name)
		}
	}
}

func TestValidateCatchesEveryField(t *testing.T) {
	base := A100()
	mutations := []struct {
		name string
		mut  func(*Hardware)
	}{
		{"NumPEs", func(h *Hardware) { h.NumPEs = 0 }},
		{"LocalMemBytes", func(h *Hardware) { h.LocalMemBytes = -1 }},
		{"AccumBytes", func(h *Hardware) { h.AccumBytes = 0 }},
		{"FlopsPerCyclePE", func(h *Hardware) { h.FlopsPerCyclePE = 0 }},
		{"GlobalBytesPerCycle", func(h *Hardware) { h.GlobalBytesPerCycle = 0 }},
		{"GlobalMemBytes", func(h *Hardware) { h.GlobalMemBytes = -1 }},
		{"L2ReuseFactor", func(h *Hardware) { h.L2ReuseFactor = 0.5 }},
		{"ClockHz", func(h *Hardware) { h.ClockHz = 0 }},
		{"InputBytes", func(h *Hardware) { h.InputBytes = 0 }},
		{"OutputBytes", func(h *Hardware) { h.OutputBytes = 0 }},
		{"MMAAlign", func(h *Hardware) { h.MMAAlign = 0 }},
		{"TaskStartupCycles", func(h *Hardware) { h.TaskStartupCycles = -1 }},
	}
	for _, m := range mutations {
		h := base
		m.mut(&h)
		if err := h.Validate(); err == nil {
			t.Errorf("mutation %s not caught", m.name)
		} else if !strings.Contains(err.Error(), m.name) {
			t.Errorf("mutation %s: error %q does not name the field", m.name, err)
		}
	}
}

func TestA100Peak(t *testing.T) {
	h := A100()
	if got := h.PeakFLOPS(); math.Abs(got-312e12)/312e12 > 1e-9 {
		t.Fatalf("A100 peak = %g, want 312e12", got)
	}
	if h.NumPEs != 108 {
		t.Fatalf("A100 SMs = %d", h.NumPEs)
	}
	if h.Scheduler != ScheduleDynamic {
		t.Fatal("A100 must use dynamic scheduling")
	}
}

func TestCUDACorePresetIsSlower(t *testing.T) {
	tc := A100()
	cc := A100CUDACores()
	ratio := tc.PeakFLOPS() / cc.PeakFLOPS()
	if ratio < 10 || ratio > 20 {
		t.Fatalf("tensor-core/CUDA-core peak ratio = %g, want ~16", ratio)
	}
	if cc.MMAAlign != 1 {
		t.Fatal("CUDA-core preset must disable the matrix unit")
	}
}

func TestAscend910(t *testing.T) {
	h := Ascend910()
	if got := h.PeakFLOPS(); math.Abs(got-256e12)/256e12 > 1e-9 {
		t.Fatalf("Ascend peak = %g, want 256e12", got)
	}
	if h.Scheduler != ScheduleStaticMaxMin {
		t.Fatal("Ascend must use static max-min allocation")
	}
	if h.NumPEs != 32 {
		t.Fatalf("Ascend cores = %d", h.NumPEs)
	}
}

func TestFairShareBandwidth(t *testing.T) {
	h := A100()
	want := h.GlobalBytesPerCycle / 108
	if got := h.FairShareBandwidth(); got != want {
		t.Fatalf("FairShareBandwidth = %g, want %g", got, want)
	}
}

func TestCyclesToSeconds(t *testing.T) {
	h := Ascend910() // 1 GHz makes this exact
	if got := h.CyclesToSeconds(2e9); got != 2.0 {
		t.Fatalf("CyclesToSeconds = %g, want 2", got)
	}
}

func TestSchedulerString(t *testing.T) {
	if ScheduleDynamic.String() != "dynamic" ||
		ScheduleStaticMaxMin.String() != "static-maxmin" ||
		Scheduler(9).String() != "Scheduler(9)" {
		t.Fatal("Scheduler.String mismatch")
	}
}

func TestByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		want string
	}{
		{"a100", A100().Name},
		{"A100", A100().Name},
		{"a100cuda", A100CUDACores().Name},
		{"a100-cuda", A100CUDACores().Name},
		{"ascend910", Ascend910().Name},
		{"npu", Ascend910().Name},
	} {
		h, err := ByName(tc.name)
		if err != nil {
			t.Errorf("ByName(%q): %v", tc.name, err)
			continue
		}
		if h.Name != tc.want {
			t.Errorf("ByName(%q) = %s, want %s", tc.name, h.Name, tc.want)
		}
	}
	_, err := ByName("h100")
	if err == nil {
		t.Fatal("ByName(h100) accepted an unknown name")
	}
	for _, valid := range []string{"a100", "a100cuda", "ascend910"} {
		if !strings.Contains(err.Error(), valid) {
			t.Errorf("error %q does not list %s", err, valid)
		}
	}
}
