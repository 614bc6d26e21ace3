package sim

import (
	"fmt"
	"math"
	"sort"

	"mikpoly/internal/hw"
)

// Brownout is a bandwidth brownout: within [StartCycle, StartCycle+Duration)
// the device's global-memory bandwidth is multiplied by Factor. It models the
// persistent-but-bounded degradation a shared HBM controller shows under
// thermal throttling or a noisy co-tenant, as opposed to the run-long scaling
// of Faults.Bandwidth.
type Brownout struct {
	// StartCycle is the onset, in device cycles from run start.
	StartCycle float64
	// Duration is the window length in cycles; the window is half-open.
	Duration float64
	// Factor scales bandwidth inside the window, in (0, 1].
	Factor float64
}

// Faults configures the deterministic fault-injection layer: a seeded model
// of degraded hardware that the scheduler and the serving layer above can be
// tested against. All effects are pure functions of (Seed, Salt) and the task
// list, so every injected run is exactly reproducible.
//
// Faults split into two families the health layer above classifies:
//
//   - transient: TaskFaultRate draws per-task faults from the (Seed, Salt)
//     stream, so a retry under a different Salt can clear them;
//   - persistent: DropPEs, SlowPE, Bandwidth, PEDeathCycle, Brownout and
//     StickyFaults are salt-independent — the same degradation re-fires on
//     every attempt until the layer above re-plans around it.
type Faults struct {
	// Seed drives the transient-fault pseudo-random stream.
	Seed uint64

	// Salt varies the fault pattern between otherwise identical runs —
	// the graph runtime's recovery ladder gives each re-execution of a
	// stage its own salt, so a transient fault can clear while staying
	// deterministic.
	Salt uint64

	// DropPEs lists PEs that are offline: they accept no tasks. At least
	// one PE must remain live.
	DropPEs []int

	// SlowPE multiplies the compute time of tasks placed on a PE
	// (e.g. {3: 2.0} makes PE 3 compute half as fast). Factors must be
	// >= 1; unlisted PEs run at full speed.
	SlowPE map[int]float64

	// Bandwidth scales global memory bandwidth, in (0, 1]; 0 means
	// unchanged. 0.5 halves the device's bytes/cycle.
	Bandwidth float64

	// TaskFaultRate is the per-task probability in [0, 1] that a task
	// reports a transient execution fault (seeded, deterministic). Faulted
	// tasks still occupy their PE for the full duration — the fault is
	// detected at completion — and are counted in Result.FaultedTasks.
	TaskFaultRate float64

	// PEDeathCycle schedules a permanent PE death: at the given cycle the
	// PE's in-flight task is lost (counted faulted) and the PE accepts no
	// further work for the rest of the run. Salt-independent: the same
	// config kills the same PE at the same cycle on every retry, so only
	// planning around the dead PE (a smaller H') clears it. Tasks
	// statically pre-assigned to a dead PE that never started are counted
	// in Result.StrandedTasks.
	PEDeathCycle map[int]float64

	// Brownout, when non-nil, derates global bandwidth inside its window.
	Brownout *Brownout

	// StickyFaults makes the next N tasks placed on a PE report faults
	// regardless of Salt — a sticky per-PE fault streak (a flaky core)
	// that blind retries cannot clear but quarantining can.
	StickyFaults map[int]int
}

// finite01 reports whether v is a finite value in [0, 1]. NaN fails every
// comparison, so the naive `v < 0 || v > 1` check lets it sail through —
// the explicit form rejects it.
func finite01(v float64) bool {
	return !math.IsNaN(v) && v >= 0 && v <= 1
}

// Validate checks the configuration against a device.
func (f Faults) Validate(h hw.Hardware) error {
	dead := 0
	seen := make(map[int]bool)
	for _, pe := range f.DropPEs {
		if pe < 0 || pe >= h.NumPEs {
			return fmt.Errorf("sim: dropped PE %d out of range [0,%d)", pe, h.NumPEs)
		}
		if !seen[pe] {
			seen[pe] = true
			dead++
		}
	}
	if dead >= h.NumPEs {
		return fmt.Errorf("sim: all %d PEs dropped", h.NumPEs)
	}
	for pe, s := range f.SlowPE {
		if pe < 0 || pe >= h.NumPEs {
			return fmt.Errorf("sim: slowed PE %d out of range [0,%d)", pe, h.NumPEs)
		}
		if s < 1 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("sim: slowdown factor for PE %d must be >= 1 and finite, got %g", pe, s)
		}
	}
	if !finite01(f.Bandwidth) {
		return fmt.Errorf("sim: bandwidth factor must be in (0,1] or 0 for unchanged, got %g", f.Bandwidth)
	}
	if !finite01(f.TaskFaultRate) {
		return fmt.Errorf("sim: task fault rate must be in [0,1], got %g", f.TaskFaultRate)
	}
	for pe, at := range f.PEDeathCycle {
		if pe < 0 || pe >= h.NumPEs {
			return fmt.Errorf("sim: death of PE %d out of range [0,%d)", pe, h.NumPEs)
		}
		if at < 0 || math.IsNaN(at) || math.IsInf(at, 0) {
			return fmt.Errorf("sim: death cycle for PE %d must be >= 0 and finite, got %g", pe, at)
		}
	}
	if b := f.Brownout; b != nil {
		if b.StartCycle < 0 || math.IsNaN(b.StartCycle) || math.IsInf(b.StartCycle, 0) {
			return fmt.Errorf("sim: brownout start must be >= 0 and finite, got %g", b.StartCycle)
		}
		if b.Duration <= 0 || math.IsNaN(b.Duration) || math.IsInf(b.Duration, 0) {
			return fmt.Errorf("sim: brownout duration must be > 0 and finite, got %g", b.Duration)
		}
		if !finite01(b.Factor) || b.Factor == 0 {
			return fmt.Errorf("sim: brownout factor must be in (0,1], got %g", b.Factor)
		}
	}
	for pe, n := range f.StickyFaults {
		if pe < 0 || pe >= h.NumPEs {
			return fmt.Errorf("sim: sticky faults on PE %d out of range [0,%d)", pe, h.NumPEs)
		}
		if n < 0 {
			return fmt.Errorf("sim: sticky fault count for PE %d must be >= 0, got %d", pe, n)
		}
	}
	return nil
}

// faultState is the per-run realization of a Faults config.
type faultState struct {
	dead    []bool
	slow    []float64
	rate    float64
	base    uint64 // mixed Seed+Salt stream origin
	deathAt []float64
	sticky  []int
	brown   *Brownout

	// per-run outcome, folded into the Result by the event loop
	peFaults []int
	diedMid  []bool
	stranded int
}

func newFaultState(h hw.Hardware, f Faults) *faultState {
	fs := &faultState{
		dead:     make([]bool, h.NumPEs),
		slow:     make([]float64, h.NumPEs),
		rate:     f.TaskFaultRate,
		base:     splitmix64(f.Seed ^ splitmix64(f.Salt+0x5bf0_3635)),
		deathAt:  make([]float64, h.NumPEs),
		sticky:   make([]int, h.NumPEs),
		brown:    f.Brownout,
		peFaults: make([]int, h.NumPEs),
		diedMid:  make([]bool, h.NumPEs),
	}
	for i := range fs.slow {
		fs.slow[i] = 1
		fs.deathAt[i] = math.Inf(1)
	}
	for _, pe := range f.DropPEs {
		fs.dead[pe] = true
	}
	for pe, s := range f.SlowPE {
		fs.slow[pe] = s
	}
	for pe, at := range f.PEDeathCycle {
		fs.deathAt[pe] = at
	}
	for pe, n := range f.StickyFaults {
		fs.sticky[pe] = n
	}
	return fs
}

// taskFault decides deterministically whether the i-th started task reports a
// transient fault.
func (fs *faultState) taskFault(i int) bool {
	if fs.rate <= 0 {
		return false
	}
	if fs.rate >= 1 {
		return true
	}
	u := splitmix64(fs.base + uint64(i)*0x9e37_79b9_7f4a_7c15)
	return float64(u>>11)/(1<<53) < fs.rate
}

// bwFactor is the brownout multiplier at clock value now.
func (fs *faultState) bwFactor(now float64) float64 {
	if fs == nil || fs.brown == nil {
		return 1
	}
	if now+timeEps(now) >= fs.brown.StartCycle && now < fs.brown.StartCycle+fs.brown.Duration {
		return fs.brown.Factor
	}
	return 1
}

// deadPEs lists the PEs that died mid-run, sorted.
func (fs *faultState) deadPEs() []int {
	var out []int
	for pe, d := range fs.diedMid {
		if d {
			out = append(out, pe)
		}
	}
	sort.Ints(out)
	return out
}

// splitmix64 is the SplitMix64 mixing function — a tiny, well-distributed
// seeded hash so fault decisions need no shared RNG state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// RunWithFaults executes the task list on hardware h degraded by f: dropped
// PEs accept no work, slowed PEs stretch compute, global bandwidth is scaled
// (with brownout windows applied on top), PEs may die permanently mid-run,
// and tasks may report seeded transient or sticky faults. The analytic fast
// path is never taken — degraded hardware breaks its wave-lockstep assumption
// — so results stay exact. Placement respects the device scheduler: the NPU's
// max-min static allocator only assigns to live PEs (a real deployment
// re-plans around a dead core), while the GPU's dynamic queue naturally
// routes around them. Work stranded on a mid-run death (statically assigned,
// never started) is reported in Result.StrandedTasks.
func RunWithFaults(h hw.Hardware, tasks []Task, f Faults) (Result, error) {
	if err := h.Validate(); err != nil {
		return Result{}, err
	}
	if err := f.Validate(h); err != nil {
		return Result{}, err
	}
	if len(tasks) == 0 {
		return Result{PEBusy: make([]float64, h.NumPEs)}, nil
	}
	if f.Bandwidth > 0 {
		h.GlobalBytesPerCycle *= f.Bandwidth
	}
	fs := newFaultState(h, f)
	var res Result
	switch h.Scheduler {
	case hw.ScheduleStaticMaxMin:
		res = runEventLoop(h, staticAssign(h, tasks, fs.dead), nil, fs)
	default:
		res = runEventLoop(h, dynamicQueue(tasks), nil, fs)
	}
	return res, nil
}

// ChaosSchedule derives a randomized-but-fully-deterministic fault schedule
// from a seed: one PE death at a mid-run cycle, a sticky fault streak on a
// second PE, usually a bandwidth brownout, and a low transient task-fault
// rate. Two calls with the same (seed, h) produce identical schedules — the
// contract the chaos harness's reproducibility invariant rests on. The
// transient rate is kept low so faults stay attributable: a uniform fault
// storm is systemic, not a per-PE health signal.
func ChaosSchedule(seed uint64, h hw.Hardware) Faults {
	r := func(i uint64) uint64 { return splitmix64(seed ^ splitmix64(i+0xc4a5)) }
	u01 := func(i uint64) float64 { return float64(r(i)>>11) / (1 << 53) }

	f := Faults{Seed: seed}
	deathPE := int(r(1) % uint64(h.NumPEs))
	f.PEDeathCycle = map[int]float64{
		// Mid-run for typical stage makespans on the modelled devices.
		deathPE: 2_000 + u01(2)*100_000,
	}
	stickyPE := int(r(3) % uint64(h.NumPEs))
	if stickyPE != deathPE {
		f.StickyFaults = map[int]int{stickyPE: 2 + int(r(4)%6)}
	}
	if u01(5) < 0.75 {
		f.Brownout = &Brownout{
			StartCycle: u01(6) * 50_000,
			Duration:   10_000 + u01(7)*200_000,
			Factor:     0.4 + u01(8)*0.5,
		}
	}
	f.TaskFaultRate = u01(9) * 0.01
	return f
}
