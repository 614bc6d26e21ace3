package sim

import (
	"math"
	"reflect"
	"testing"

	"mikpoly/internal/hw"
)

// faultTestHW is a small 4-PE device so dropout effects are easy to reason
// about.
func faultTestHW(sched hw.Scheduler) hw.Hardware {
	h := hw.A100()
	h.NumPEs = 4
	h.Scheduler = sched
	return h
}

func computeTask() Task {
	return Task{ComputeCycles: 1000, MemBytes: 1, StartupCycles: 10}
}

func memTask(h hw.Hardware) Task {
	// Streams enough bytes that even a full per-task bandwidth share keeps
	// the task memory-bound.
	return Task{ComputeCycles: 1, MemBytes: 1000 * perTaskBandwidthCap(h), StartupCycles: 0}
}

func repeat(t Task, n int) []Task {
	out := make([]Task, n)
	for i := range out {
		out[i] = t
	}
	return out
}

func TestFaultsValidate(t *testing.T) {
	h := faultTestHW(hw.ScheduleDynamic)
	cases := []struct {
		name string
		f    Faults
		ok   bool
	}{
		{"zero value", Faults{}, true},
		{"drop one", Faults{DropPEs: []int{1}}, true},
		{"drop all", Faults{DropPEs: []int{0, 1, 2, 3}}, false},
		{"drop dup not all", Faults{DropPEs: []int{1, 1, 2}}, true},
		{"drop out of range", Faults{DropPEs: []int{4}}, false},
		{"slow ok", Faults{SlowPE: map[int]float64{0: 2}}, true},
		{"slow below 1", Faults{SlowPE: map[int]float64{0: 0.5}}, false},
		{"slow out of range", Faults{SlowPE: map[int]float64{9: 2}}, false},
		{"bandwidth ok", Faults{Bandwidth: 0.5}, true},
		{"bandwidth above 1", Faults{Bandwidth: 1.5}, false},
		{"rate ok", Faults{TaskFaultRate: 0.3}, true},
		{"rate above 1", Faults{TaskFaultRate: 1.1}, false},
		// NaN fails every <,> comparison, so naive range checks accept it.
		{"bandwidth NaN", Faults{Bandwidth: math.NaN()}, false},
		{"bandwidth +Inf", Faults{Bandwidth: math.Inf(1)}, false},
		{"bandwidth -Inf", Faults{Bandwidth: math.Inf(-1)}, false},
		{"rate NaN", Faults{TaskFaultRate: math.NaN()}, false},
		{"rate +Inf", Faults{TaskFaultRate: math.Inf(1)}, false},
		{"slow NaN", Faults{SlowPE: map[int]float64{0: math.NaN()}}, false},
		{"slow +Inf", Faults{SlowPE: map[int]float64{0: math.Inf(1)}}, false},
		{"death ok", Faults{PEDeathCycle: map[int]float64{1: 500}}, true},
		{"death at zero", Faults{PEDeathCycle: map[int]float64{1: 0}}, true},
		{"death negative", Faults{PEDeathCycle: map[int]float64{1: -1}}, false},
		{"death NaN", Faults{PEDeathCycle: map[int]float64{1: math.NaN()}}, false},
		{"death Inf", Faults{PEDeathCycle: map[int]float64{1: math.Inf(1)}}, false},
		{"death out of range", Faults{PEDeathCycle: map[int]float64{7: 10}}, false},
		{"brownout ok", Faults{Brownout: &Brownout{StartCycle: 10, Duration: 100, Factor: 0.5}}, true},
		{"brownout zero duration", Faults{Brownout: &Brownout{Duration: 0, Factor: 0.5}}, false},
		{"brownout zero factor", Faults{Brownout: &Brownout{Duration: 10, Factor: 0}}, false},
		{"brownout factor NaN", Faults{Brownout: &Brownout{Duration: 10, Factor: math.NaN()}}, false},
		{"brownout factor above 1", Faults{Brownout: &Brownout{Duration: 10, Factor: 1.5}}, false},
		{"brownout start NaN", Faults{Brownout: &Brownout{StartCycle: math.NaN(), Duration: 10, Factor: 0.5}}, false},
		{"brownout duration Inf", Faults{Brownout: &Brownout{Duration: math.Inf(1), Factor: 0.5}}, false},
		{"sticky ok", Faults{StickyFaults: map[int]int{2: 3}}, true},
		{"sticky negative", Faults{StickyFaults: map[int]int{2: -1}}, false},
		{"sticky out of range", Faults{StickyFaults: map[int]int{5: 1}}, false},
	}
	for _, c := range cases {
		err := c.f.Validate(h)
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: invalid config accepted", c.name)
		}
	}
}

func TestPEDropoutStretchesMakespan(t *testing.T) {
	for _, sched := range []hw.Scheduler{hw.ScheduleDynamic, hw.ScheduleStaticMaxMin} {
		h := faultTestHW(sched)
		tasks := repeat(computeTask(), 4)
		healthy := Run(h, tasks)
		degraded, err := RunWithFaults(h, tasks, Faults{DropPEs: []int{2, 3}})
		if err != nil {
			t.Fatal(err)
		}
		// 4 tasks on 4 PEs take one wave; on 2 live PEs, two waves.
		if degraded.Cycles < 1.8*healthy.Cycles {
			t.Fatalf("sched %v: dropout makespan %g, healthy %g — expected ~2x", sched, degraded.Cycles, healthy.Cycles)
		}
		if degraded.PEBusy[2] != 0 || degraded.PEBusy[3] != 0 {
			t.Fatalf("sched %v: dropped PEs ran work: %v", sched, degraded.PEBusy)
		}
	}
}

func TestPESlowdownStretchesCompute(t *testing.T) {
	h := faultTestHW(hw.ScheduleDynamic)
	tasks := repeat(computeTask(), 1)
	healthy := Run(h, tasks)
	slow, err := RunWithFaults(h, tasks, Faults{SlowPE: map[int]float64{0: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// The lone task lands on PE 0: startup + 3x compute.
	want := computeTask().StartupCycles + 3*computeTask().ComputeCycles
	if slow.Cycles < 0.99*want || slow.Cycles <= healthy.Cycles {
		t.Fatalf("slowdown makespan %g, healthy %g, want ~%g", slow.Cycles, healthy.Cycles, want)
	}
}

func TestBandwidthDegradationStretchesStreaming(t *testing.T) {
	h := faultTestHW(hw.ScheduleDynamic)
	tasks := repeat(memTask(h), 1)
	healthy := Run(h, tasks)
	degraded, err := RunWithFaults(h, tasks, Faults{Bandwidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Cycles < 1.9*healthy.Cycles {
		t.Fatalf("half bandwidth makespan %g vs healthy %g — expected ~2x", degraded.Cycles, healthy.Cycles)
	}
}

func TestTransientTaskFaultsDeterministic(t *testing.T) {
	h := faultTestHW(hw.ScheduleDynamic)
	tasks := repeat(computeTask(), 64)

	none, err := RunWithFaults(h, tasks, Faults{Seed: 1, TaskFaultRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	if none.FaultedTasks != 0 {
		t.Fatalf("rate 0 produced %d faults", none.FaultedTasks)
	}

	all, err := RunWithFaults(h, tasks, Faults{Seed: 1, TaskFaultRate: 1})
	if err != nil {
		t.Fatal(err)
	}
	if all.FaultedTasks != len(tasks) {
		t.Fatalf("rate 1 faulted %d/%d tasks", all.FaultedTasks, len(tasks))
	}

	f := Faults{Seed: 42, TaskFaultRate: 0.25}
	r1, err := RunWithFaults(h, tasks, f)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunWithFaults(h, tasks, f)
	if err != nil {
		t.Fatal(err)
	}
	if r1.FaultedTasks != r2.FaultedTasks || r1.Cycles != r2.Cycles {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
	if r1.FaultedTasks == 0 || r1.FaultedTasks == len(tasks) {
		t.Fatalf("rate 0.25 faulted %d/%d tasks — implausible stream", r1.FaultedTasks, len(tasks))
	}

	// A different salt (retry attempt) realizes a different fault pattern
	// over many tasks, while staying reproducible.
	f2 := f
	f2.Salt = 1
	r3, err := RunWithFaults(h, tasks, f2)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := RunWithFaults(h, tasks, f2)
	if err != nil {
		t.Fatal(err)
	}
	if r3.FaultedTasks != r4.FaultedTasks {
		t.Fatalf("salted run not reproducible: %d vs %d", r3.FaultedTasks, r4.FaultedTasks)
	}
}

func TestRunWithFaultsMatchesRunWhenHealthy(t *testing.T) {
	for _, sched := range []hw.Scheduler{hw.ScheduleDynamic, hw.ScheduleStaticMaxMin} {
		h := faultTestHW(sched)
		tasks := repeat(computeTask(), 11)
		want := Run(h, tasks)
		got, err := RunWithFaults(h, tasks, Faults{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Cycles != want.Cycles || got.NumTasks != want.NumTasks || got.FaultedTasks != 0 {
			t.Fatalf("sched %v: healthy injection diverged: %+v vs %+v", sched, got, want)
		}
	}
}

func TestRunWithFaultsEmptyAndInvalid(t *testing.T) {
	h := faultTestHW(hw.ScheduleDynamic)
	res, err := RunWithFaults(h, nil, Faults{})
	if err != nil || res.Cycles != 0 {
		t.Fatalf("empty task list: %+v, %v", res, err)
	}
	if _, err := RunWithFaults(h, repeat(computeTask(), 1), Faults{DropPEs: []int{0, 1, 2, 3}}); err == nil {
		t.Fatal("all-dropped config accepted")
	}
}

func TestPEDeathKillsInFlightAndStopsPlacement(t *testing.T) {
	for _, sched := range []hw.Scheduler{hw.ScheduleDynamic, hw.ScheduleStaticMaxMin} {
		h := faultTestHW(sched)
		tasks := repeat(computeTask(), 12) // 3 waves on 4 PEs
		healthy := Run(h, tasks)
		// Kill PE 1 mid first wave: its in-flight task is lost.
		f := Faults{PEDeathCycle: map[int]float64{1: 500}}
		res, err := RunWithFaults(h, tasks, f)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.DeadPEs; !reflect.DeepEqual(got, []int{1}) {
			t.Fatalf("sched %v: DeadPEs = %v, want [1]", sched, got)
		}
		if res.FaultedTasks < 1 {
			t.Fatalf("sched %v: in-flight task on dying PE not counted faulted", sched)
		}
		if res.Clean() {
			t.Fatalf("sched %v: death run reported clean", sched)
		}
		// PE 1 stops accruing busy time at the death cycle.
		if res.PEBusy[1] > 500+1 {
			t.Fatalf("sched %v: dead PE busy %g past death cycle", sched, res.PEBusy[1])
		}
		switch sched {
		case hw.ScheduleStaticMaxMin:
			// Statically assigned residual work strands.
			if res.StrandedTasks == 0 {
				t.Fatalf("static: no stranded tasks after mid-run death")
			}
			if res.NumTasks+res.StrandedTasks != len(tasks) {
				t.Fatalf("static: started %d + stranded %d != %d", res.NumTasks, res.StrandedTasks, len(tasks))
			}
		default:
			// The shared queue reroutes everything to survivors.
			if res.StrandedTasks != 0 {
				t.Fatalf("dynamic: %d tasks stranded despite live PEs", res.StrandedTasks)
			}
			if res.NumTasks != len(tasks) {
				t.Fatalf("dynamic: ran %d/%d tasks", res.NumTasks, len(tasks))
			}
			if res.Cycles <= healthy.Cycles {
				t.Fatalf("dynamic: death makespan %g not above healthy %g", res.Cycles, healthy.Cycles)
			}
		}
	}
}

func TestPEDeathAllPEsStrandsRemainder(t *testing.T) {
	for _, sched := range []hw.Scheduler{hw.ScheduleDynamic, hw.ScheduleStaticMaxMin} {
		h := faultTestHW(sched)
		tasks := repeat(computeTask(), 12)
		f := Faults{PEDeathCycle: map[int]float64{0: 100, 1: 100, 2: 100, 3: 100}}
		res, err := RunWithFaults(h, tasks, f)
		if err != nil {
			t.Fatalf("sched %v: %v", sched, err)
		}
		if got := res.DeadPEs; !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
			t.Fatalf("sched %v: DeadPEs = %v", sched, got)
		}
		// First wave of 4 died in flight; the rest never ran.
		if res.FaultedTasks != 4 || res.StrandedTasks != 8 {
			t.Fatalf("sched %v: faulted %d stranded %d, want 4/8", sched, res.FaultedTasks, res.StrandedTasks)
		}
	}
}

func TestBrownoutStretchesOnlyItsWindow(t *testing.T) {
	h := faultTestHW(hw.ScheduleDynamic)
	tasks := repeat(memTask(h), 4)
	healthy := Run(h, tasks)

	// A brownout covering the whole run behaves like run-long derating.
	whole := Faults{Brownout: &Brownout{StartCycle: 0, Duration: 1e12, Factor: 0.5}}
	rWhole, err := RunWithFaults(h, tasks, whole)
	if err != nil {
		t.Fatal(err)
	}
	if rWhole.Cycles < 1.9*healthy.Cycles {
		t.Fatalf("run-long brownout makespan %g vs healthy %g — expected ~2x", rWhole.Cycles, healthy.Cycles)
	}
	if rWhole.BandwidthDerate != 0.5 {
		t.Fatalf("BandwidthDerate = %g, want 0.5", rWhole.BandwidthDerate)
	}

	// A brownout that ends before the run finishes costs strictly less.
	partial := Faults{Brownout: &Brownout{StartCycle: 0, Duration: healthy.Cycles / 2, Factor: 0.5}}
	rPartial, err := RunWithFaults(h, tasks, partial)
	if err != nil {
		t.Fatal(err)
	}
	if !(healthy.Cycles < rPartial.Cycles && rPartial.Cycles < rWhole.Cycles) {
		t.Fatalf("partial brownout %g not between healthy %g and whole-run %g",
			rPartial.Cycles, healthy.Cycles, rWhole.Cycles)
	}

	// A brownout entirely after the run is a no-op (and not reported).
	after := Faults{Brownout: &Brownout{StartCycle: 10 * healthy.Cycles, Duration: 100, Factor: 0.5}}
	rAfter, err := RunWithFaults(h, tasks, after)
	if err != nil {
		t.Fatal(err)
	}
	if rAfter.Cycles != healthy.Cycles || rAfter.BandwidthDerate != 0 {
		t.Fatalf("future brownout changed the run: cycles %g (healthy %g), derate %g",
			rAfter.Cycles, healthy.Cycles, rAfter.BandwidthDerate)
	}
}

func TestStickyFaultStreakIsSaltIndependent(t *testing.T) {
	h := faultTestHW(hw.ScheduleStaticMaxMin)
	tasks := repeat(computeTask(), 16)
	f := Faults{StickyFaults: map[int]int{2: 3}}
	for salt := uint64(0); salt < 3; salt++ {
		f.Salt = salt
		res, err := RunWithFaults(h, tasks, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.FaultedTasks != 3 {
			t.Fatalf("salt %d: %d faults, want the sticky streak of 3", salt, res.FaultedTasks)
		}
		if len(res.PEFaults) == 0 || res.PEFaults[2] != 3 {
			t.Fatalf("salt %d: PEFaults = %v, want 3 on PE 2", salt, res.PEFaults)
		}
	}
}

func TestPersistentFaultsDeterministicUnderSeed(t *testing.T) {
	h := faultTestHW(hw.ScheduleDynamic)
	tasks := repeat(computeTask(), 32)
	f := Faults{
		Seed:          7,
		TaskFaultRate: 0.05,
		PEDeathCycle:  map[int]float64{3: 1500},
		Brownout:      &Brownout{StartCycle: 200, Duration: 900, Factor: 0.6},
		StickyFaults:  map[int]int{0: 2},
	}
	r1, err := RunWithFaults(h, tasks, f)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunWithFaults(h, tasks, f)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.FaultedTasks != r2.FaultedTasks ||
		r1.StrandedTasks != r2.StrandedTasks || !reflect.DeepEqual(r1.PEFaults, r2.PEFaults) ||
		!reflect.DeepEqual(r1.DeadPEs, r2.DeadPEs) {
		t.Fatalf("same config diverged:\n%+v\n%+v", r1, r2)
	}
}

func TestChaosScheduleDeterministicAndValid(t *testing.T) {
	h := hw.A100()
	for seed := uint64(0); seed < 20; seed++ {
		a := ChaosSchedule(seed, h)
		b := ChaosSchedule(seed, h)
		if !reflect.DeepEqual(a.PEDeathCycle, b.PEDeathCycle) ||
			!reflect.DeepEqual(a.StickyFaults, b.StickyFaults) ||
			a.TaskFaultRate != b.TaskFaultRate ||
			(a.Brownout == nil) != (b.Brownout == nil) ||
			(a.Brownout != nil && *a.Brownout != *b.Brownout) {
			t.Fatalf("seed %d: schedule not deterministic:\n%+v\n%+v", seed, a, b)
		}
		if err := a.Validate(h); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", seed, err)
		}
		if len(a.PEDeathCycle) != 1 {
			t.Fatalf("seed %d: want exactly one PE death, got %v", seed, a.PEDeathCycle)
		}
	}
	// Different seeds should not all collapse onto the same schedule.
	if reflect.DeepEqual(ChaosSchedule(1, h).PEDeathCycle, ChaosSchedule(2, h).PEDeathCycle) &&
		reflect.DeepEqual(ChaosSchedule(2, h).PEDeathCycle, ChaosSchedule(3, h).PEDeathCycle) {
		t.Fatal("chaos schedules identical across seeds 1..3")
	}
}
