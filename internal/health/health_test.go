package health

import (
	"reflect"
	"sync"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
)

// res builds a sim.Result with faults attributed to the given PEs (one fault
// each) on an 8-PE run where every PE was busy.
func res(n int, faultyPEs ...int) sim.Result {
	r := sim.Result{NumTasks: n, PEBusy: make([]float64, n)}
	for i := range r.PEBusy {
		r.PEBusy[i] = 100
	}
	if len(faultyPEs) > 0 {
		r.PEFaults = make([]int, n)
		for _, pe := range faultyPEs {
			r.PEFaults[pe]++
			r.FaultedTasks++
		}
	}
	return r
}

func TestCleanRunsStayHealthy(t *testing.T) {
	reg := NewRegistry(8, Config{})
	for i := 0; i < 10; i++ {
		if c := reg.ObserveResult(reg.View(), res(8)); c != Healthy {
			t.Fatalf("clean observation classified %v", c)
		}
	}
	v := reg.View()
	if !v.Healthy() || v.Fingerprint() != "" || v.Generation != 0 {
		t.Fatalf("registry degraded without evidence: %+v", v)
	}
}

func TestConcentratedStreakQuarantines(t *testing.T) {
	reg := NewRegistry(8, Config{StreakThreshold: 3})
	v := reg.View()
	if c := reg.ObserveResult(v, res(8, 2)); c != Transient {
		t.Fatalf("first fault classified %v, want transient", c)
	}
	if c := reg.ObserveResult(v, res(8, 2)); c != Transient {
		t.Fatalf("second fault classified %v, want transient", c)
	}
	if c := reg.ObserveResult(v, res(8, 2)); c != Persistent {
		t.Fatalf("third fault classified %v, want persistent", c)
	}
	got := reg.View()
	if !reflect.DeepEqual(got.Quarantined, []int{2}) {
		t.Fatalf("quarantined = %v, want [2]", got.Quarantined)
	}
	if got.Generation == 0 || got.Fingerprint() != "q2" {
		t.Fatalf("view after quarantine: %+v fp=%q", got, got.Fingerprint())
	}
}

func TestCleanRunResetsStreak(t *testing.T) {
	reg := NewRegistry(8, Config{StreakThreshold: 3})
	v := reg.View()
	reg.ObserveResult(v, res(8, 2))
	reg.ObserveResult(v, res(8, 2))
	reg.ObserveResult(v, res(8)) // PE 2 ran clean: streak resets
	reg.ObserveResult(v, res(8, 2))
	reg.ObserveResult(v, res(8, 2))
	if q := reg.View().Quarantined; len(q) != 0 {
		t.Fatalf("interrupted streak still quarantined %v", q)
	}
}

func TestUniformFaultStormIsSystemic(t *testing.T) {
	reg := NewRegistry(8, Config{StreakThreshold: 1})
	v := reg.View()
	// All 8 PEs faulting at once is workload/systemic, not a per-PE signal
	// — even with threshold 1 nothing must be quarantined.
	for i := 0; i < 5; i++ {
		if c := reg.ObserveResult(v, res(8, 0, 1, 2, 3, 4, 5, 6, 7)); c != Transient {
			t.Fatalf("storm classified %v, want transient", c)
		}
	}
	if q := reg.View().Quarantined; len(q) != 0 {
		t.Fatalf("uniform storm quarantined PEs: %v", q)
	}
}

func TestDeadPEQuarantinedImmediately(t *testing.T) {
	reg := NewRegistry(8, Config{})
	r := res(8)
	r.DeadPEs = []int{5}
	r.FaultedTasks = 1
	if c := reg.ObserveResult(reg.View(), r); c != Persistent {
		t.Fatalf("death classified %v, want persistent", c)
	}
	v := reg.View()
	if !reflect.DeepEqual(v.Quarantined, []int{5}) || v.Fingerprint() != "q5" {
		t.Fatalf("view after death: %+v fp=%q", v, v.Fingerprint())
	}
}

func TestNeverQuarantinesLastPE(t *testing.T) {
	reg := NewRegistry(2, Config{})
	r := res(2)
	r.DeadPEs = []int{0, 1}
	reg.ObserveResult(reg.View(), r)
	v := reg.View()
	if len(v.Quarantined) != 1 {
		t.Fatalf("quarantined %v — exactly one of two PEs may go", v.Quarantined)
	}
	if h := v.Apply(hw.A100()); h.NumPEs < 1 {
		t.Fatalf("Apply produced %d PEs", h.NumPEs)
	}
}

func TestSurvivorIndexTranslation(t *testing.T) {
	reg := NewRegistry(4, Config{})
	// Quarantine base PE 1 via a death.
	r := res(4)
	r.DeadPEs = []int{1}
	reg.ObserveResult(reg.View(), r)
	degraded := reg.View()
	if !reflect.DeepEqual(degraded.Quarantined, []int{1}) {
		t.Fatalf("setup: %v", degraded.Quarantined)
	}
	// A run under the degraded view has 3 PEs: view-PE 1 is base PE 2,
	// view-PE 2 is base PE 3. A death of view-PE 2 must quarantine base 3.
	r2 := res(3)
	r2.DeadPEs = []int{2}
	reg.ObserveResult(degraded, r2)
	if q := reg.View().Quarantined; !reflect.DeepEqual(q, []int{1, 3}) {
		t.Fatalf("quarantined = %v, want [1 3]", q)
	}
}

func TestBandwidthHysteresis(t *testing.T) {
	reg := NewRegistry(8, Config{BandwidthStreak: 2})
	v := reg.View()
	derated := res(8)
	derated.BandwidthDerate = 0.6
	if reg.ObserveResult(v, derated); reg.View().BandwidthFactor != 1 {
		t.Fatal("single derate adopted without hysteresis")
	}
	if c := reg.ObserveResult(v, derated); c != Persistent {
		t.Fatalf("second derate classified %v, want persistent", c)
	}
	got := reg.View()
	if got.BandwidthFactor != 0.6 || got.Fingerprint() != "bw0.60" {
		t.Fatalf("after adoption: factor %g fp %q", got.BandwidthFactor, got.Fingerprint())
	}
	// Two clean observations lift it.
	reg.ObserveResult(v, res(8))
	reg.ObserveResult(v, res(8))
	if got := reg.View(); got.BandwidthFactor != 1 || !got.Healthy() {
		t.Fatalf("derate not lifted: %+v", got)
	}
}

func TestViewApply(t *testing.T) {
	h := hw.A100()
	v := View{NumPEs: h.NumPEs, Quarantined: []int{0, 7}, BandwidthFactor: 0.5}
	got := v.Apply(h)
	if got.NumPEs != h.NumPEs-2 {
		t.Fatalf("NumPEs = %d, want %d", got.NumPEs, h.NumPEs-2)
	}
	if got.GlobalBytesPerCycle != h.GlobalBytesPerCycle*0.5 {
		t.Fatalf("bandwidth = %g", got.GlobalBytesPerCycle)
	}
	if got.LocalMemBytes != h.LocalMemBytes {
		t.Fatal("Apply must not touch M_local")
	}
	// Healthy view is identity.
	if id := (View{NumPEs: h.NumPEs}).Apply(h); id != h {
		t.Fatalf("healthy Apply changed hardware: %+v", id)
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a := View{NumPEs: 8, Quarantined: []int{3, 1}, BandwidthFactor: 0.75}
	b := View{NumPEs: 8, Quarantined: []int{1, 3}, BandwidthFactor: 0.75}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("order-sensitive fingerprint: %q vs %q", a.Fingerprint(), b.Fingerprint())
	}
	if a.Fingerprint() != "q1,3|bw0.75" {
		t.Fatalf("fingerprint = %q", a.Fingerprint())
	}
	c := View{NumPEs: 8, Quarantined: []int{1}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("distinct views share a fingerprint")
	}
}

func TestRemapFaults(t *testing.T) {
	v := View{NumPEs: 4, Quarantined: []int{1}}
	f := sim.Faults{
		Seed:          9,
		TaskFaultRate: 0.1,
		DropPEs:       []int{0, 1},
		SlowPE:        map[int]float64{3: 2},
		PEDeathCycle:  map[int]float64{1: 100, 2: 200},
		StickyFaults:  map[int]int{1: 5},
	}
	got := v.RemapFaults(f)
	// Survivors are base 0,2,3 → view 0,1,2. Base-1 entries vanish.
	if !reflect.DeepEqual(got.DropPEs, []int{0}) {
		t.Fatalf("DropPEs = %v", got.DropPEs)
	}
	if !reflect.DeepEqual(got.SlowPE, map[int]float64{2: 2}) {
		t.Fatalf("SlowPE = %v", got.SlowPE)
	}
	if !reflect.DeepEqual(got.PEDeathCycle, map[int]float64{1: 200}) {
		t.Fatalf("PEDeathCycle = %v", got.PEDeathCycle)
	}
	if got.StickyFaults != nil {
		t.Fatalf("StickyFaults = %v, want nil (only entry was quarantined)", got.StickyFaults)
	}
	if got.Seed != f.Seed || got.TaskFaultRate != f.TaskFaultRate {
		t.Fatal("device-wide knobs must pass through")
	}
	// Healthy view is identity.
	if id := (View{NumPEs: 4}).RemapFaults(f); !reflect.DeepEqual(id, f) {
		t.Fatalf("healthy remap changed config: %+v", id)
	}
}

func TestStatsCounters(t *testing.T) {
	reg := NewRegistry(8, Config{StreakThreshold: 1})
	v := reg.View()
	reg.ObserveResult(v, res(8))    // healthy
	reg.ObserveResult(v, res(8, 3)) // concentrated, threshold 1 → quarantine
	s := reg.Stats()
	if s.Observations != 2 || s.Persistents != 1 || s.Quarantines != 1 || s.Quarantined != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentObserveAndView(t *testing.T) {
	reg := NewRegistry(8, Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					reg.ObserveResult(reg.View(), res(8, g))
				} else {
					v := reg.View()
					_ = v.Fingerprint()
					_ = v.Apply(hw.A100())
					_ = reg.Stats()
					_ = reg.ObserveClean(g)
				}
			}
		}(g)
	}
	wg.Wait()
}
