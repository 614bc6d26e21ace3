package sim

import (
	"math"
	"testing"
	"testing/quick"

	"mikpoly/internal/hw"
)

// tinyGPU is a small dynamic-scheduled device that makes hand calculations
// easy: 4 PEs, bandwidth 4 B/cycle total (fair share 1 B/cycle).
func tinyGPU() hw.Hardware {
	return hw.Hardware{
		Name:                "tiny-gpu",
		NumPEs:              4,
		LocalMemBytes:       1 << 20,
		AccumBytes:          1 << 20,
		FlopsPerCyclePE:     2,
		GlobalBytesPerCycle: 4,
		L2ReuseFactor:       1,
		ClockHz:             1e9,
		InputBytes:          2,
		OutputBytes:         4,
		MMAAlign:            16,
		TaskStartupCycles:   0,
		Scheduler:           hw.ScheduleDynamic,
	}
}

func tinyNPU() hw.Hardware {
	h := tinyGPU()
	h.Name = "tiny-npu"
	h.Scheduler = hw.ScheduleStaticMaxMin
	return h
}

func TestPipelinedTaskCycles(t *testing.T) {
	task := Task{ComputeCycles: 100, MemBytes: 50, StartupCycles: 10}
	// Compute-bound at bw=1: 10 + max(100, 50) = 110.
	if got := PipelinedTaskCycles(task, 1); got != 110 {
		t.Fatalf("compute-bound cost = %g, want 110", got)
	}
	// Memory-bound at bw=0.25: 10 + max(100, 200) = 210.
	if got := PipelinedTaskCycles(task, 0.25); got != 210 {
		t.Fatalf("memory-bound cost = %g, want 210", got)
	}
}

func TestPipelinedTaskCyclesBadBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PipelinedTaskCycles(Task{}, 0)
}

func TestRunEmpty(t *testing.T) {
	r := Run(tinyGPU(), nil)
	if r.Cycles != 0 || r.NumTasks != 0 {
		t.Fatalf("empty run = %+v", r)
	}
	if len(r.PEBusy) != 4 {
		t.Fatalf("PEBusy len = %d", len(r.PEBusy))
	}
}

func TestRunSingleComputeBoundTask(t *testing.T) {
	task := Task{ComputeCycles: 1000, MemBytes: 100, StartupCycles: 50}
	r := Run(tinyGPU(), []Task{task})
	// Alone, the task gets the per-task cap (>= fair share), mem takes
	// 100/1 = 100 < 1000 compute, so makespan = 50 + 1000.
	if math.Abs(r.Cycles-1050) > 1e-6 {
		t.Fatalf("makespan = %g, want 1050", r.Cycles)
	}
	if r.NumTasks != 1 {
		t.Fatalf("NumTasks = %d", r.NumTasks)
	}
	if r.Waves() != 1 {
		t.Fatalf("Waves = %d", r.Waves())
	}
}

func TestRunSingleMemoryBoundTask(t *testing.T) {
	h := tinyGPU()
	// Per-task cap = max(fairShare=1, total/16=0.25) = 1 B/cycle.
	task := Task{ComputeCycles: 10, MemBytes: 1000, StartupCycles: 0}
	r := Run(h, []Task{task})
	if math.Abs(r.Cycles-1000) > 1e-6 {
		t.Fatalf("makespan = %g, want 1000 (cap-limited streaming)", r.Cycles)
	}
}

func TestRunFullWavePerfectBalance(t *testing.T) {
	// 4 identical compute-bound tasks on 4 PEs: one wave, no interference.
	task := Task{ComputeCycles: 500, MemBytes: 100, StartupCycles: 0}
	r := Run(tinyGPU(), []Task{task, task, task, task})
	if math.Abs(r.Cycles-500) > 1e-6 {
		t.Fatalf("makespan = %g, want 500", r.Cycles)
	}
	if e := r.Efficiency(); math.Abs(e-1) > 1e-6 {
		t.Fatalf("efficiency = %g, want 1", e)
	}
}

// The load-imbalance effect of Fig. 15: 5 identical tasks on 4 PEs need two
// waves, and the second wave runs nearly empty, halving efficiency.
func TestRunLastWaveImbalance(t *testing.T) {
	task := Task{ComputeCycles: 500, MemBytes: 100, StartupCycles: 0}
	tasks := []Task{task, task, task, task, task}
	r := Run(tinyGPU(), tasks)
	if math.Abs(r.Cycles-1000) > 1e-6 {
		t.Fatalf("makespan = %g, want 1000 (two waves)", r.Cycles)
	}
	if r.Waves() != 2 {
		t.Fatalf("Waves = %d, want 2", r.Waves())
	}
	if e := r.Efficiency(); math.Abs(e-0.625) > 1e-3 {
		t.Fatalf("efficiency = %g, want 0.625 (5/8)", e)
	}
}

func TestRunBandwidthContention(t *testing.T) {
	// 4 memory-bound tasks share 4 B/cycle equally: each gets 1 B/cycle.
	task := Task{ComputeCycles: 1, MemBytes: 400, StartupCycles: 0}
	r := Run(tinyGPU(), []Task{task, task, task, task})
	if math.Abs(r.Cycles-400) > 1e-6 {
		t.Fatalf("makespan = %g, want 400", r.Cycles)
	}
	// Two tasks: share = min(cap=1, 4/2=2) = 1 (cap-limited), same rate.
	r2 := Run(tinyGPU(), []Task{task, task})
	if math.Abs(r2.Cycles-400) > 1e-6 {
		t.Fatalf("2-task makespan = %g, want 400", r2.Cycles)
	}
}

func TestRunContentionSlowsStreaming(t *testing.T) {
	// Device with generous per-task cap: total BW 64, 4 PEs, cap = 64/16=4
	// so fair share 16 is not the binding limit; cap = max(16, 4) = 16.
	h := tinyGPU()
	h.GlobalBytesPerCycle = 64
	// 8 streaming tasks → share = 64/8 = 8 B/cycle each.
	task := Task{ComputeCycles: 1, MemBytes: 800, StartupCycles: 0}
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = task
	}
	h.NumPEs = 8
	r := Run(h, tasks)
	if math.Abs(r.Cycles-100) > 1e-6 {
		t.Fatalf("makespan = %g, want 100 (8-way shared streaming)", r.Cycles)
	}
}

func TestRunStartupSerializesBeforeStreaming(t *testing.T) {
	task := Task{ComputeCycles: 0, MemBytes: 100, StartupCycles: 25}
	r := Run(tinyGPU(), []Task{task})
	if math.Abs(r.Cycles-125) > 1e-6 {
		t.Fatalf("makespan = %g, want 125", r.Cycles)
	}
}

func TestStaticMaxMinBalances(t *testing.T) {
	// Mixed durations: LPT should land 100+10 vs 60+50 vs 55+54 vs 105
	// style balanced splits. Verify the makespan equals the best possible
	// for this simple instance.
	mk := func(c float64) Task { return Task{ComputeCycles: c, MemBytes: 0, StartupCycles: 0} }
	tasks := []Task{mk(100), mk(60), mk(55), mk(54), mk(50), mk(10), mk(105)}
	r := Run(tinyNPU(), tasks)
	// LPT sorted: 105,100,60,55,54,50,10 → loads 105 | 100+10 | 60+50 |
	// 55+54 → makespan 110.
	if math.Abs(r.Cycles-110) > 1e-6 {
		t.Fatalf("static makespan = %g, want 110", r.Cycles)
	}
	if r.NumTasks != 7 {
		t.Fatalf("NumTasks = %d", r.NumTasks)
	}
}

func TestDynamicSchedulerOverlapsRegions(t *testing.T) {
	// One long task (tag 0) and six short tasks (tag 1) on 4 PEs: the
	// dynamic scheduler packs the short tasks around the long one.
	long := Task{ComputeCycles: 600, Tag: 0}
	short := Task{ComputeCycles: 200, Tag: 1}
	tasks := []Task{long, short, short, short, short, short, short}
	r := Run(tinyGPU(), tasks)
	if math.Abs(r.Cycles-600) > 1e-6 {
		t.Fatalf("makespan = %g, want 600 (shorts fill around the long task)", r.Cycles)
	}
}

func TestResultEfficiencyZeroSafe(t *testing.T) {
	var r Result
	if r.Efficiency() != 0 || r.Waves() != 0 {
		t.Fatal("zero Result must report zero efficiency and waves")
	}
}

// Property: makespan is at least the critical path (longest single task) and
// at least total-work/numPEs, and busy time never exceeds makespan × PEs.
func TestRunBoundsProperty(t *testing.T) {
	h := tinyGPU()
	f := func(seed uint64) bool {
		n := int(seed%11) + 1
		tasks := make([]Task, n)
		s := seed
		var totalCompute float64
		var longest float64
		for i := range tasks {
			s = s*6364136223846793005 + 1442695040888963407
			c := float64(s%1000) + 1
			m := float64(s / 1000 % 500)
			tasks[i] = Task{ComputeCycles: c, MemBytes: m, StartupCycles: 5}
			totalCompute += c + 5
			alone := PipelinedTaskCycles(tasks[i],
				math.Max(h.FairShareBandwidth(), h.GlobalBytesPerCycle/16))
			if alone > longest {
				longest = alone
			}
		}
		r := Run(h, tasks)
		lowerBound := math.Max(longest, totalCompute/float64(h.NumPEs))
		return r.Cycles >= lowerBound-1e-6 &&
			r.BusyPECycles <= r.Cycles*float64(h.NumPEs)+1e-6 &&
			r.NumTasks == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: the static max-min allocation is deterministic and its makespan
// is never better than the dynamic scheduler by more than numerical noise on
// identical task sets (dynamic dominates static for identical FIFO work).
func TestStaticVsDynamicProperty(t *testing.T) {
	gpu, npu := tinyGPU(), tinyNPU()
	f := func(seed uint64) bool {
		n := int(seed%9) + 1
		tasks := make([]Task, n)
		s := seed
		for i := range tasks {
			s = s*2862933555777941757 + 3037000493
			tasks[i] = Task{ComputeCycles: float64(s%300) + 1}
		}
		dyn := Run(gpu, tasks)
		st1 := Run(npu, tasks)
		st2 := Run(npu, tasks)
		if st1.Cycles != st2.Cycles {
			return false // determinism
		}
		// LPT static can beat FIFO dynamic, but for compute-only tasks
		// it can never be worse than 4/3 of it (Graham's bound both ways
		// is loose; just check both are within 2× of each other).
		ratio := st1.Cycles / dyn.Cycles
		return ratio > 0.4 && ratio < 2.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDeterministic(t *testing.T) {
	tasks := []Task{
		{ComputeCycles: 123, MemBytes: 456, StartupCycles: 7},
		{ComputeCycles: 89, MemBytes: 1000, StartupCycles: 7},
		{ComputeCycles: 500, MemBytes: 10, StartupCycles: 7},
		{ComputeCycles: 77, MemBytes: 77, StartupCycles: 7},
		{ComputeCycles: 300, MemBytes: 600, StartupCycles: 7},
	}
	a := Run(tinyGPU(), tasks)
	b := Run(tinyGPU(), tasks)
	if a.Cycles != b.Cycles || a.BusyPECycles != b.BusyPECycles {
		t.Fatal("simulation is not deterministic")
	}
}

// The analytic fast path must agree with the event loop at its gate
// boundary: compare a program just below the gate with the scaled analytic
// prediction.
func TestAnalyticFastPathMatchesEventLoop(t *testing.T) {
	h := tinyGPU()
	task := Task{ComputeCycles: 300, MemBytes: 500, StartupCycles: 10}
	// Just below the gate: event loop.
	nSmall := fastPathMinWaves*h.NumPEs - 1
	small := make([]Task, nSmall)
	for i := range small {
		small[i] = task
	}
	ev := Run(h, small)
	// Just above the gate: fast path.
	nBig := fastPathMinWaves * h.NumPEs
	big := make([]Task, nBig)
	for i := range big {
		big[i] = task
	}
	fp := Run(h, big)
	// Per-wave cost must agree closely: scale both to per-task cycles.
	evPer := ev.Cycles / float64((nSmall+h.NumPEs-1)/h.NumPEs)
	fpPer := fp.Cycles / float64(nBig/h.NumPEs)
	if math.Abs(evPer-fpPer)/evPer > 0.02 {
		t.Fatalf("fast path per-wave %g vs event loop %g", fpPer, evPer)
	}
	if fp.NumTasks != nBig {
		t.Fatalf("NumTasks = %d", fp.NumTasks)
	}
	if e := fp.Efficiency(); e < 0.99 || e > 1.01 {
		t.Fatalf("full-wave efficiency = %g, want ~1", e)
	}
}

func TestAnalyticFastPathMixedRunsFallsBack(t *testing.T) {
	h := tinyGPU()
	// Alternating tasks: runs of length 1 must NOT take the fast path
	// (verified via exact event-loop equality with a manual small case).
	a := Task{ComputeCycles: 100}
	b := Task{ComputeCycles: 200}
	tasks := make([]Task, 0, 2*fastPathMinWaves*h.NumPEs)
	for i := 0; i < fastPathMinWaves*h.NumPEs; i++ {
		tasks = append(tasks, a, b)
	}
	if _, ok := analyticFastPath(h, tasks); ok {
		t.Fatal("alternating runs must not take the fast path")
	}
	// Two long runs do take it.
	tasks = tasks[:0]
	for i := 0; i < fastPathMinWaves*h.NumPEs; i++ {
		tasks = append(tasks, a)
	}
	for i := 0; i < fastPathMinWaves*h.NumPEs; i++ {
		tasks = append(tasks, b)
	}
	res, ok := analyticFastPath(h, tasks)
	if !ok {
		t.Fatal("two long runs should take the fast path")
	}
	want := float64(fastPathMinWaves)*100 + float64(fastPathMinWaves)*200
	if math.Abs(res.Cycles-want) > 1e-6 {
		t.Fatalf("fast path cycles = %g, want %g", res.Cycles, want)
	}
}

// Property: for random identical-task programs just above the fast-path
// gate, the analytic result matches an event-loop run of a same-size
// program within a tight tolerance (the paths must agree, not just be
// plausible).
func TestFastPathAgreesWithEventLoopProperty(t *testing.T) {
	h := tinyGPU()
	f := func(seed uint64) bool {
		c := float64(seed%500) + 10
		m := float64(seed / 500 % 800)
		task := Task{ComputeCycles: c, MemBytes: m, StartupCycles: 3}
		n := fastPathMinWaves * h.NumPEs // exactly at the gate
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = task
		}
		fast, ok := analyticFastPath(h, tasks)
		if !ok {
			return false
		}
		ev := runEventLoop(h, dynamicQueue(tasks), nil, nil)
		return math.Abs(fast.Cycles-ev.Cycles)/ev.Cycles < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		name string
		busy []float64
		want float64
	}{
		{"empty", nil, 0},
		{"all idle", []float64{0, 0, 0}, 0},
		{"balanced", []float64{10, 10, 10}, 0},
		{"one idle PE", []float64{10, 10, 0}, 1},
		{"half spread", []float64{10, 5}, 0.5},
	}
	for _, c := range cases {
		if got := Imbalance(c.busy); got != c.want {
			t.Errorf("%s: Imbalance(%v) = %g, want %g", c.name, c.busy, got, c.want)
		}
	}
}
