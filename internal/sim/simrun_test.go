package sim_test

import (
	"math/rand"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// The event loop runs cohorts of identical in-flight tasks; these tests hold
// it to the per-task loop it replaced (refRun, export_test.go), run over the
// reference placement: the same Result bit for bit from Run, RunTrace and
// RunWithFaults, and the same trace events in the same order.

func sameEvents(a, b []sim.TraceEvent) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].PE != b[i].PE || a[i].Tag != b[i].Tag || !sameFloat(a[i].Start, b[i].Start) || !sameFloat(a[i].End, b[i].End) {
			return false
		}
	}
	return true
}

// checkRun requires Run, RunTrace and RunWithFaults(f) to reproduce the
// reference on tasks.
func checkRun(t testing.TB, h hw.Hardware, tasks []sim.Task, f sim.Faults) {
	t.Helper()
	if got, want := sim.Run(h, tasks), sim.RunReference(h, tasks); !sameResult(got, want) {
		t.Fatalf("%s, %d tasks: Run %+v, reference %+v", h.Name, len(tasks), got, want)
	}
	got, gotEv := sim.RunTrace(h, tasks)
	want, wantEv := sim.RunTraceReference(h, tasks)
	if !sameResult(got, want) || !sameEvents(gotEv, wantEv) {
		t.Fatalf("%s, %d tasks: RunTrace %+v with %d events, reference %+v with %d events",
			h.Name, len(tasks), got, len(gotEv), want, len(wantEv))
	}
	got, err := sim.RunWithFaults(h, tasks, f)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.RunWithFaultsReference(h, tasks, f); !sameResult(got, want) {
		t.Fatalf("%s, %d tasks, faults %+v: RunWithFaults %+v, reference %+v", h.Name, len(tasks), f, got, want)
	}
}

// runFaults extends randomFaults with what splits or shrinks a cohort: slowed
// PEs, a fault rate high enough to flag neighbours differently, and PE deaths
// early enough to land mid-run — sometimes every PE's.
func runFaults(rng *rand.Rand, h hw.Hardware) sim.Faults {
	f := randomFaults(rng, h)
	if rng.Intn(3) == 0 {
		f.SlowPE = map[int]float64{rng.Intn(h.NumPEs): 1 + rng.Float64(), rng.Intn(h.NumPEs): 2}
	}
	if rng.Intn(3) == 0 {
		f.TaskFaultRate = rng.Float64() / 2
	}
	switch rng.Intn(4) {
	case 0:
		f.PEDeathCycle = map[int]float64{rng.Intn(h.NumPEs): rng.Float64() * 3000, rng.Intn(h.NumPEs): rng.Float64() * 600}
	case 1:
		f.PEDeathCycle = map[int]float64{}
		for pe := 0; pe < h.NumPEs; pe++ {
			f.PEDeathCycle[pe] = 100 + rng.Float64()*2000
		}
	}
	return f
}

// runKinds are the synthetic list kinds that run to completion (a NaN task
// never retires).
var runKinds = []int{manyCosts, allEqual, nearTies, fewCosts, neighbours}

// synthRun draws a synthetic list of one of runKinds; half of them drop the
// per-index tags, so identical tasks form cohorts.
func synthRun(rng *rand.Rand, kind, n int) []sim.Task {
	tasks := synthTasks(rng, kind, n)
	if kind != neighbours && rng.Intn(2) == 0 {
		for i := range tasks {
			tasks[i].Tag = 0
		}
	}
	return tasks
}

// loweredTasks plans a random shape on a random small library for h and
// lowers the winner.
func loweredTasks(t testing.TB, rng *rand.Rand, h hw.Hardware) []sim.Task {
	shape := tensor.GemmShape{M: 1 + rng.Intn(1536), N: 1 + rng.Intn(1536), K: 1 + rng.Intn(4096)}
	prog, _, err := poly.NewPlanner(randomLibrary(rng, h)).Plan(shape)
	if err != nil {
		t.Fatal(err)
	}
	return prog.Tasks(h)
}

// TestEventLoopMatchesReference: over task lists lowered from random Ascend
// 910 and A100 plans and over synthetic lists of every runnable kind, under
// random fault schedules, the cohort loop reproduces the per-task loop.
func TestEventLoopMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 600; i++ {
		for _, h := range []hw.Hardware{hw.Ascend910(), hw.A100()} {
			checkRun(t, h, loweredTasks(t, rng, h), runFaults(rng, h))
		}
	}
	for i := 0; i < 300; i++ {
		for _, h := range []hw.Hardware{hw.Ascend910(), hw.A100()} {
			checkRun(t, h, synthRun(rng, runKinds[i%len(runKinds)], rng.Intn(400)), runFaults(rng, h))
		}
	}
}

// FuzzSimRun drives the cohort loop ≡ reference property with arbitrary
// devices, list kinds, lengths and fault schedules.
func FuzzSimRun(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(0), false)
	f.Add(int64(2), uint16(300), uint8(1), true)
	f.Add(int64(3), uint16(64), uint8(2), false)
	f.Add(int64(4), uint16(200), uint8(3), true)
	f.Add(int64(5), uint16(96), uint8(4), false)
	f.Add(int64(6), uint16(0), uint8(5), true) // a lowered plan
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kind uint8, gpu bool) {
		if n > 2000 {
			return
		}
		h := hw.Ascend910()
		if gpu {
			h = hw.A100()
		}
		rng := rand.New(rand.NewSource(seed))
		var tasks []sim.Task
		if k := int(kind) % (len(runKinds) + 1); k < len(runKinds) {
			tasks = synthRun(rng, runKinds[k], int(n))
		} else {
			tasks = loweredTasks(t, rng, h)
		}
		checkRun(t, h, tasks, runFaults(rng, h))
	})
}
