package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/kernel"
	"mikpoly/internal/poly"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// The max-min allocator orders tasks by counting over their few distinct costs
// and carves its per-PE lists from one array; these tests hold it to the
// comparison-sort allocator it replaced (refStaticAssign, export_test.go):
// the same per-PE lists task for task, and the same Run / RunWithFaults
// result bits.

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameTask(a, b sim.Task) bool {
	return sameFloat(a.ComputeCycles, b.ComputeCycles) && sameFloat(a.MemBytes, b.MemBytes) &&
		sameFloat(a.StartupCycles, b.StartupCycles) && a.Tag == b.Tag
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sameResult compares every field of two results bit for bit.
func sameResult(a, b sim.Result) bool {
	if !sameFloat(a.Cycles, b.Cycles) || !sameFloat(a.BusyPECycles, b.BusyPECycles) ||
		!sameFloat(a.MemBytesStreamed, b.MemBytesStreamed) || !sameFloat(a.BandwidthDerate, b.BandwidthDerate) ||
		a.NumTasks != b.NumTasks || a.FaultedTasks != b.FaultedTasks || a.StrandedTasks != b.StrandedTasks ||
		!sameInts(a.PEFaults, b.PEFaults) || !sameInts(a.DeadPEs, b.DeadPEs) || len(a.PEBusy) != len(b.PEBusy) {
		return false
	}
	for i := range a.PEBusy {
		if !sameFloat(a.PEBusy[i], b.PEBusy[i]) {
			return false
		}
	}
	return true
}

// checkAssign requires the production allocator to reproduce the reference on
// tasks: per-PE lists with f's dropped PEs excluded, and — when run is set —
// Run's and RunWithFaults(f)'s results.
func checkAssign(t testing.TB, h hw.Hardware, tasks []sim.Task, f sim.Faults, run bool) {
	t.Helper()
	dead := make([]bool, h.NumPEs)
	for _, pe := range f.DropPEs {
		dead[pe] = true
	}
	for _, mask := range [][]bool{nil, dead} {
		got, want := sim.StaticAssignLists(h, tasks, mask)
		for pe := range want {
			if len(got[pe]) != len(want[pe]) {
				t.Fatalf("%d tasks, dropped %v: PE %d holds %d tasks, reference %d",
					len(tasks), f.DropPEs, pe, len(got[pe]), len(want[pe]))
			}
			for i := range want[pe] {
				if !sameTask(got[pe][i], want[pe][i]) {
					t.Fatalf("%d tasks, dropped %v: PE %d task %d is %+v, reference %+v",
						len(tasks), f.DropPEs, pe, i, got[pe][i], want[pe][i])
				}
			}
		}
	}
	if !run {
		return
	}
	if got, want := sim.Run(h, tasks), sim.RunReference(h, tasks); !sameResult(got, want) {
		t.Fatalf("%d tasks: Run %+v, reference %+v", len(tasks), got, want)
	}
	got, err := sim.RunWithFaults(h, tasks, f)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.RunWithFaultsReference(h, tasks, f); !sameResult(got, want) {
		t.Fatalf("%d tasks, faults %+v: RunWithFaults %+v, reference %+v", len(tasks), f, got, want)
	}
}

// randomFaults drops a random set of PEs — sometimes every PE but one — and
// sometimes adds a seeded chaos schedule (a mid-run death strands statically
// assigned work).
func randomFaults(rng *rand.Rand, h hw.Hardware) sim.Faults {
	var f sim.Faults
	if rng.Intn(3) == 0 {
		f = sim.ChaosSchedule(rng.Uint64(), h)
	}
	switch rng.Intn(4) {
	case 0: // none dropped
	case 1: // all but one
		keep := rng.Intn(h.NumPEs)
		for pe := 0; pe < h.NumPEs; pe++ {
			if pe != keep {
				f.DropPEs = append(f.DropPEs, pe)
			}
		}
	default:
		for pe := 0; pe < h.NumPEs-1; pe++ {
			if rng.Intn(4) == 0 {
				f.DropPEs = append(f.DropPEs, pe)
			}
		}
	}
	return f
}

// Kinds of synthetic task list.
const (
	manyCosts  = iota // more distinct costs than the counting order takes
	allEqual          // one cost
	nearTies          // costs within the allocator's eps of each other
	withNaN           // some NaN costs (lists only: a NaN task never retires)
	fewCosts          // a handful of costs, zeros of both signs among them
	neighbours        // tasks one field apart, in runs of 8 per tag
	numKinds
)

// synthTasks draws an n-task list of the given kind. Every task but the
// neighbours carries its index as its tag, so the per-PE lists show whether
// equal-cost tasks kept their list order.
func synthTasks(rng *rand.Rand, kind, n int) []sim.Task {
	tasks := make([]sim.Task, n)
	negZero := math.Copysign(0, -1)
	for i := range tasks {
		t := sim.Task{StartupCycles: 8, MemBytes: 64, Tag: i}
		switch kind {
		case manyCosts:
			t.ComputeCycles = float64(100 + rng.Intn(40))
		case allEqual:
			t.ComputeCycles = 500
		case nearTies:
			t.ComputeCycles = 1000 + float64(rng.Intn(5))*1e-12
		case withNaN:
			t.ComputeCycles = float64(100 * (1 + rng.Intn(3)))
			if rng.Intn(4) == 0 {
				t.MemBytes = math.NaN()
			}
		case neighbours:
			// Every field that shapes an in-flight task's timeline, varied
			// alone: a later stream start that completes at the same
			// cycle, a longer stream, a compute one ulp longer.
			t = sim.Task{StartupCycles: 8, ComputeCycles: 500, MemBytes: 1 << 15, Tag: i / 8 % 2}
			switch rng.Intn(5) {
			case 0:
				t.StartupCycles, t.ComputeCycles = 16, 492
			case 1:
				t.MemBytes += 4096
			case 2:
				t.ComputeCycles = math.Nextafter(t.ComputeCycles, 501)
			}
		default:
			switch r := rng.Intn(5); r {
			case 0:
				t = sim.Task{Tag: i}
			case 1:
				t = sim.Task{StartupCycles: negZero, ComputeCycles: negZero, MemBytes: negZero, Tag: i}
			default:
				t.ComputeCycles = float64(r * 250)
			}
		}
		tasks[i] = t
	}
	return tasks
}

// randomLibrary is a small model-less library for h (g_predict falls back to
// the analytic task cost).
func randomLibrary(rng *rand.Rand, h hw.Hardware) *tune.Library {
	tiles := []int{16, 32, 48, 64, 128, 256}
	ks := make([]kernel.MicroKernel, 4+rng.Intn(6))
	for i := range ks {
		ks[i] = kernel.New(tiles[rng.Intn(len(tiles))], tiles[rng.Intn(len(tiles))], 16<<rng.Intn(4),
			kernel.Config{Stages: 1 + rng.Intn(4), Vec: 1 << rng.Intn(4)})
	}
	return &tune.Library{HW: h, Kernels: ks}
}

// TestStaticAssignMatchesReference: over task lists lowered from random
// Ascend 910 plans and over synthetic lists of every kind, under random
// dropped-PE masks, the allocator reproduces the reference exactly.
func TestStaticAssignMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	h := hw.Ascend910()
	for i := 0; i < 120; i++ {
		lib := randomLibrary(rng, h)
		shape := tensor.GemmShape{M: 1 + rng.Intn(1536), N: 1 + rng.Intn(1536), K: 1 + rng.Intn(4096)}
		prog, _, err := poly.NewPlanner(lib).Plan(shape)
		if err != nil {
			t.Fatal(err)
		}
		checkAssign(t, h, prog.Tasks(h), randomFaults(rng, h), true)
	}
	for i := 0; i < 200; i++ {
		kind := i % numKinds
		checkAssign(t, h, synthTasks(rng, kind, rng.Intn(300)), randomFaults(rng, h), kind != withNaN)
	}
}

// FuzzStaticAssign drives the allocator ≡ reference property with arbitrary
// list kinds, lengths and dropped-PE masks.
func FuzzStaticAssign(f *testing.F) {
	f.Add(int64(1), uint16(40), uint8(manyCosts), uint32(0))
	f.Add(int64(2), uint16(300), uint8(allEqual), uint32(0x7fffffff))
	f.Add(int64(3), uint16(64), uint8(nearTies), uint32(0x00ff00ff))
	f.Add(int64(4), uint16(17), uint8(withNaN), uint32(0xfffffffe))
	f.Add(int64(5), uint16(200), uint8(fewCosts), uint32(0x10))
	f.Add(int64(6), uint16(96), uint8(neighbours), uint32(0))
	h := hw.Ascend910()
	f.Fuzz(func(t *testing.T, seed int64, n uint16, kind uint8, dead uint32) {
		if n > 2000 {
			return
		}
		var fs sim.Faults
		for pe := 0; pe < h.NumPEs; pe++ {
			if dead&(1<<pe) != 0 && len(fs.DropPEs) < h.NumPEs-1 {
				fs.DropPEs = append(fs.DropPEs, pe)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		k := int(kind) % numKinds
		checkAssign(t, h, synthTasks(rng, k, int(n)), fs, k != withNaN)
	})
}
