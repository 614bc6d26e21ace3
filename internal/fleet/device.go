package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mikpoly/internal/core"
	"mikpoly/internal/engine"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/obs"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// State is a device's lifecycle stage. The legal transitions are
// starting → healthy ⇄ degraded → draining → dead, plus a crash edge from
// any live state straight to dead.
type State int32

const (
	StateStarting State = iota
	StateHealthy
	StateDegraded
	StateDraining
	StateDead
)

func (s State) String() string {
	switch s {
	case StateStarting:
		return "starting"
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDraining:
		return "draining"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Typed device errors. The dispatcher's failover logic keys on these: all of
// them mean "this attempt is lost, try another replica", and none of them
// should surface to a client while a capable device survives.
var (
	// ErrDeviceDown: the device is dead or closed and accepts no work.
	ErrDeviceDown = errors.New("fleet: device down")
	// ErrDeviceCrashed: the device died executing this very op.
	ErrDeviceCrashed = errors.New("fleet: device crashed")
	// ErrDeviceHung: the op sat in a hang window and only the context
	// cancellation (a hedge win or deadline) released it.
	ErrDeviceHung = errors.New("fleet: device hung")
	// ErrDeviceBusy: the device's command queue is full (load, not fault —
	// it does not feed the breaker).
	ErrDeviceBusy = errors.New("fleet: device queue full")
	// ErrDeviceDraining: the device is draining and takes no new work.
	ErrDeviceDraining = errors.New("fleet: device draining")
	// ErrExecFaulted: the run completed but reported unhealed faults.
	ErrExecFaulted = errors.New("fleet: execution reported unhealed faults")
)

// retryableOn reports whether err indicates a device-local failure another
// replica could absorb (as opposed to a caller cancellation or a bad request).
func retryableOn(err error) bool {
	return errors.Is(err, ErrDeviceDown) || errors.Is(err, ErrDeviceCrashed) ||
		errors.Is(err, ErrDeviceHung) || errors.Is(err, ErrDeviceBusy) ||
		errors.Is(err, ErrDeviceDraining) || errors.Is(err, ErrExecFaulted)
}

// DeviceConfig tunes one Device.
type DeviceConfig struct {
	// Name identifies the device in routing, events, and metrics.
	Name string
	// Faults optionally injects PE-level degradation into every simulated
	// run on this device (the single-device chaos knob).
	Faults *sim.Faults
	// DevFaults optionally injects a device-level fault domain.
	DevFaults sim.DeviceFaults
	// Events receives lifecycle and fault events (nil = discard).
	Events *EventLog
	// Obs threads tracing into the device's graph runtime.
	Obs *obs.Obs
}

// queueDepth bounds a device's serialized command queue.
const queueDepth = 32

// GemmResult is one fleet GEMM execution: the numeric digest plus routing
// forensics. Checksum and Sample are bitwise-stable across device classes —
// every program partitions the same iteration space with sequential-K
// accumulation — which is what makes transparent failover numerically safe.
type GemmResult struct {
	Shape    tensor.GemmShape
	Device   string
	Degraded bool
	Attempts int
	Cycles   float64
	Checksum float64
	Sample   []float32
}

// job is one queued command. The worker is the only writer of v/err and
// closes done exactly once.
type job struct {
	ctx  context.Context
	run  func(ctx context.Context, op int64) (any, error)
	v    any
	err  error
	done chan struct{}
}

// Device is one simulated accelerator replica: hardware model, micro-kernel
// library, compiler with its fingerprint-keyed plan cache, health registry,
// and graph runtime, all behind a serialized command queue (one op executes
// at a time, as on a real accelerator stream).
type Device struct {
	name   string
	class  string
	h      hw.Hardware
	lib    *tune.Library
	comp   *core.Compiler
	reg    *health.Registry
	rt     *graphrt.Runtime
	faults *sim.Faults
	dev    sim.DeviceFaults
	events *EventLog

	state atomic.Int32
	queue chan *job
	quit  chan struct{}
	wg    sync.WaitGroup

	mu     sync.Mutex // guards closed against concurrent submit
	closed bool

	outstanding atomic.Int64 // queued + executing
	started     atomic.Int64 // op ordinals handed out (fault triggers key on this)
	completed   atomic.Int64
	failed      atomic.Int64
}

// NewDevice builds a device over a tuned micro-kernel library. The library
// may be shared between replicas of the same hardware class — compilers,
// caches, and health registries are per-device, the (immutable) library is
// not. Call Start before submitting work.
func NewDevice(lib *tune.Library, cfg DeviceConfig) *Device {
	name := cfg.Name
	if name == "" {
		name = lib.HW.Name
	}
	d := &Device{
		name:   name,
		class:  lib.HW.Name,
		h:      lib.HW,
		lib:    lib,
		faults: cfg.Faults,
		dev:    cfg.DevFaults,
		events: cfg.Events,
		queue:  make(chan *job, queueDepth),
		quit:   make(chan struct{}),
	}
	d.reg = health.NewRegistry(lib.HW.NumPEs, health.Config{})
	d.comp = core.NewCompilerFromLibrary(lib, core.WithHealth(d.reg))
	d.rt = graphrt.New(d.comp, graphrt.Config{
		Health: d.reg,
		Obs:    cfg.Obs,
	})
	d.rt.SetSimulator(func(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result {
		return d.simulate(h, v, tasks, d.started.Load(), salt)
	})
	d.state.Store(int32(StateStarting))
	return d
}

// Name returns the device's routing name; Class its hardware class name.
func (d *Device) Name() string  { return d.name }
func (d *Device) Class() string { return d.class }

// Library returns the (immutable, possibly class-shared) micro-kernel
// library backing the device.
func (d *Device) Library() *tune.Library { return d.lib }

// Hardware returns the device's pristine hardware model.
func (d *Device) Hardware() hw.Hardware { return d.h }

// Health returns the device's health registry (never nil).
func (d *Device) Health() *health.Registry { return d.reg }

// State returns the current lifecycle state.
func (d *Device) State() State { return State(d.state.Load()) }

// Routable reports whether the dispatcher may send this device new work.
func (d *Device) Routable() bool {
	s := d.State()
	return s == StateHealthy || s == StateDegraded
}

// Outstanding is the queued-plus-executing op count (the load signal).
func (d *Device) Outstanding() int64 { return d.outstanding.Load() }

// Start launches the serialized worker and flips starting → healthy.
func (d *Device) Start() {
	if !d.state.CompareAndSwap(int32(StateStarting), int32(StateHealthy)) {
		return
	}
	d.events.Append(d.name, "state", "starting -> healthy")
	d.wg.Add(1)
	go d.loop()
}

// Close stops the worker, failing queued work with ErrDeviceDown, and waits
// for it to exit. Safe to call more than once.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.closed = true
	close(d.quit)
	d.mu.Unlock()
	d.wg.Wait()
}

// StartDrain flips a live device to draining: no new work is admitted, and
// the device transitions to dead once the queue runs dry.
func (d *Device) StartDrain() bool {
	for {
		s := d.State()
		if s != StateHealthy && s != StateDegraded {
			return false
		}
		if d.state.CompareAndSwap(int32(s), int32(StateDraining)) {
			d.events.Append(d.name, "state", s.String()+" -> draining")
			d.maybeFinishDrain()
			return true
		}
	}
}

// maybeFinishDrain completes draining → dead once no work remains.
func (d *Device) maybeFinishDrain() {
	if d.State() == StateDraining && d.outstanding.Load() == 0 {
		if d.state.CompareAndSwap(int32(StateDraining), int32(StateDead)) {
			d.events.Append(d.name, "state", "draining -> dead (drained)")
		}
	}
}

// refreshHealthState syncs healthy ⇄ degraded with the health registry's
// fingerprint after each op. Draining and dead are terminal for routing and
// never overwritten here.
func (d *Device) refreshHealthState() {
	want := StateHealthy
	if d.reg.View().Fingerprint() != "" {
		want = StateDegraded
	}
	for {
		s := d.State()
		if s != StateHealthy && s != StateDegraded || s == want {
			return
		}
		if d.state.CompareAndSwap(int32(s), int32(want)) {
			d.events.Append(d.name, "state", s.String()+" -> "+want.String())
			return
		}
	}
}

// loop is the serialized worker: one op at a time, in submission order.
func (d *Device) loop() {
	defer d.wg.Done()
	for {
		select {
		case j := <-d.queue:
			d.runJob(j)
		case <-d.quit:
			for {
				select {
				case j := <-d.queue:
					d.finish(j, nil, ErrDeviceDown)
				default:
					return
				}
			}
		}
	}
}

// runJob executes one queued op, applying the device-level fault domain.
func (d *Device) runJob(j *job) {
	if d.State() == StateDead {
		d.finish(j, nil, ErrDeviceDown)
		return
	}
	if err := j.ctx.Err(); err != nil {
		d.finish(j, nil, err)
		return
	}
	op := d.started.Add(1)
	if d.dev.CrashesAt(op) {
		d.crash(op)
		d.finish(j, nil, fmt.Errorf("%w at op %d", ErrDeviceCrashed, op))
		return
	}
	if d.dev.HangsAt(op) {
		d.events.Append(d.name, "hang", fmt.Sprintf("op %d blocked", op))
		// The op never completes; only the caller's context releases the
		// stream. The hedge path upstream is what makes this survivable.
		<-j.ctx.Done()
		d.finish(j, nil, fmt.Errorf("%w at op %d: %v", ErrDeviceHung, op, j.ctx.Err()))
		d.maybeFinishDrain()
		return
	}
	v, err := j.run(j.ctx, op)
	d.finish(j, v, err)
	d.refreshHealthState()
	d.maybeFinishDrain()
}

// crash transitions the device to dead and fails everything queued.
func (d *Device) crash(op int64) {
	d.state.Store(int32(StateDead))
	d.events.Append(d.name, "crash", fmt.Sprintf("device died at op %d", op))
	for {
		select {
		case q := <-d.queue:
			d.finish(q, nil, ErrDeviceDown)
		default:
			return
		}
	}
}

// finish completes a job exactly once and settles the counters.
func (d *Device) finish(j *job, v any, err error) {
	j.v, j.err = v, err
	if err != nil {
		d.failed.Add(1)
	} else {
		d.completed.Add(1)
	}
	d.outstanding.Add(-1)
	close(j.done)
}

// submit enqueues a command and waits for its result. Rejections (down,
// draining, full queue) are immediate; once queued, the result is always
// delivered — if ctx expires while queued, the worker observes the dead
// context and fails the job promptly.
func (d *Device) submit(ctx context.Context, run func(ctx context.Context, op int64) (any, error)) (any, error) {
	switch d.State() {
	case StateHealthy, StateDegraded:
	case StateDraining:
		return nil, ErrDeviceDraining
	default:
		return nil, ErrDeviceDown
	}
	j := &job{ctx: ctx, run: run, done: make(chan struct{})}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrDeviceDown
	}
	select {
	case d.queue <- j:
		d.outstanding.Add(1)
		d.mu.Unlock()
	default:
		d.mu.Unlock()
		return nil, ErrDeviceBusy
	}
	<-j.done
	return j.v, j.err
}

// ExecGemm plans (against this device's current health view, through its
// fingerprint-keyed cache) and executes one GEMM on deterministic operands.
// salt distinguishes dispatcher attempts so transient injected faults can
// clear on failover or retry.
func (d *Device) ExecGemm(ctx context.Context, shape tensor.GemmShape, seedA, seedB, salt uint64) (GemmResult, error) {
	v, err := d.submit(ctx, func(ctx context.Context, op int64) (any, error) {
		return d.execGemm(ctx, op, shape, seedA, seedB, salt)
	})
	if err != nil {
		return GemmResult{Shape: shape, Device: d.name}, err
	}
	return v.(GemmResult), nil
}

func (d *Device) execGemm(ctx context.Context, op int64, shape tensor.GemmShape, seedA, seedB, salt uint64) (any, error) {
	prog, degraded, err := d.comp.PlanOrFallback(ctx, shape)
	if err != nil {
		return nil, err
	}

	// Simulated execution under the device's (possibly degraded) view, with
	// the outcome fed back so GEMM traffic drives fault classification.
	h := d.h
	view := d.reg.View()
	h = view.Apply(h)
	res := d.simulate(h, view, prog.Tasks(h), op, salt)
	d.reg.ObserveResult(view, res)
	if res.FaultedTasks > 0 || res.StrandedTasks > 0 {
		return nil, fmt.Errorf("%w: %d faulted, %d stranded on %s",
			ErrExecFaulted, res.FaultedTasks, res.StrandedTasks, d.name)
	}

	a := tensor.RandomMatrix(shape.M, shape.K, seedA)
	b := tensor.RandomMatrix(shape.K, shape.N, seedB)
	out, err := engine.Execute(prog, a, b)
	if err != nil {
		return nil, err
	}
	var sum float64
	for _, x := range out.Data {
		sum += float64(x)
	}
	return GemmResult{
		Shape:    shape,
		Device:   d.name,
		Degraded: degraded,
		Cycles:   res.Cycles,
		Checksum: sum,
		Sample: []float32{
			out.At(0, 0),
			out.At(0, out.Cols-1),
			out.At(out.Rows-1, 0),
			out.At(out.Rows-1, out.Cols-1),
		},
	}, nil
}

// ExecModel runs a model graph through this device's graph runtime (stage
// recovery ladder included). Residual faulted tasks surface as ErrExecFaulted
// so the dispatcher can fail the attempt over.
func (d *Device) ExecModel(ctx context.Context, g nn.Graph, salt uint64) (graphrt.Report, error) {
	v, err := d.submit(ctx, func(ctx context.Context, op int64) (any, error) {
		rep, err := d.rt.ExecuteSalted(ctx, g, salt)
		if err != nil {
			var se *graphrt.StageError
			if errors.As(err, &se) {
				return nil, fmt.Errorf("%w: %v", ErrExecFaulted, err)
			}
			return nil, err
		}
		if rep.FaultedTasks > 0 {
			return nil, fmt.Errorf("%w: %d residual faulted tasks on %s",
				ErrExecFaulted, rep.FaultedTasks, d.name)
		}
		return rep, nil
	})
	if err != nil {
		return graphrt.Report{}, err
	}
	return v.(graphrt.Report), nil
}

// simulate runs a task batch under the device's PE-level fault config plus
// the op-windowed device-level domains (brownout, slow replica). It is both
// the direct GEMM path and the graph runtime's simulator seam, so model
// stages see identical degradation.
func (d *Device) simulate(h hw.Hardware, v health.View, tasks []sim.Task, op int64, salt uint64) sim.Result {
	var f sim.Faults
	inject := false
	if d.faults != nil {
		// Renumber per-PE fault entries onto the survivor indices of the
		// current health view, as the single-device serving layer does.
		f = v.RemapFaults(*d.faults)
		inject = true
	}
	if d.dev.BrownoutAt(op) && f.Brownout == nil {
		// Device-level brownouts derate whole ops: stretch one window
		// across the entire run.
		f.Brownout = &sim.Brownout{StartCycle: 0, Duration: sim.BrownoutAllRun, Factor: d.dev.BrownoutFactor}
		inject = true
	}
	var res sim.Result
	if !inject {
		res = sim.Run(h, tasks)
	} else {
		f.Salt += salt
		r, err := sim.RunWithFaults(h, tasks, f)
		if err != nil {
			// An unusable fault config degrades to the healthy simulation
			// rather than failing ops.
			r = sim.Run(h, tasks)
		}
		res = r
	}
	if s := d.dev.Slowdown(); s > 1 {
		res.Cycles *= s
		res.BusyPECycles *= s
		for i := range res.PEBusy {
			res.PEBusy[i] *= s
		}
	}
	return res
}

// DeviceSummary is the wire-format snapshot of one device for /healthz and
// the drain endpoint.
type DeviceSummary struct {
	Name        string  `json:"name"`
	Class       string  `json:"class"`
	State       string  `json:"state"`
	Breaker     string  `json:"breaker"`
	Fingerprint string  `json:"health_fingerprint,omitempty"`
	Outstanding int64   `json:"outstanding"`
	Started     int64   `json:"started"`
	Completed   int64   `json:"completed"`
	Failed      int64   `json:"failed"`
	Weight      float64 `json:"weight"`
}
