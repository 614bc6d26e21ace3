package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mikpoly/internal/breaker"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/nn"
	"mikpoly/internal/obs"
	"mikpoly/internal/tensor"
)

// ErrNoDevices means no routable, breaker-closed device exists for the
// request — the one fault class the fleet cannot absorb.
var ErrNoDevices = errors.New("fleet: no capable device available")

// Config tunes the dispatcher. Zero fields take defaults.
type Config struct {
	// MaxAttempts bounds the total execution attempts per request,
	// including the primary, failovers, and hedges (default 4).
	MaxAttempts int

	// HedgeAfter is the floor of the hedge delay; a second attempt fires
	// on another replica when the primary has been out longer than
	// max(HedgeAfter, hedgeMult × its latency estimate). Negative disables
	// hedging. Default 25ms.
	HedgeAfter time.Duration

	// BreakerThreshold is the consecutive-failure count that opens a
	// device's breaker (default 3); BreakerCooldown how long it stays open
	// before the prober may run a readmission canary (default 2s).
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// ProbeInterval is the background prober period; 0 (the default)
	// disables the background loop — ProbeNow can still be driven manually,
	// which is what deterministic tests do.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one readmission canary (default 250ms).
	ProbeTimeout time.Duration

	// Events receives dispatcher and device events (nil = new private log).
	Events *EventLog
	// Obs threads dispatcher spans and metrics (nil = unobserved).
	Obs *obs.Obs
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.HedgeAfter == 0 {
		c.HedgeAfter = 25 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	return c
}

// hedgeMult scales the per-device latency estimate into the hedge trigger.
const hedgeMult = 4

// probeShape is the readmission canary GEMM.
var probeShape = tensor.GemmShape{M: 64, N: 64, K: 64}

// ewma is a per-device latency estimator (successful-attempt wall time).
type ewma struct {
	mu sync.Mutex
	v  time.Duration
}

func (e *ewma) observe(d time.Duration) {
	e.mu.Lock()
	if e.v == 0 {
		e.v = d
	} else {
		e.v = time.Duration(0.7*float64(e.v) + 0.3*float64(d))
	}
	e.mu.Unlock()
}

func (e *ewma) get() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v
}

// Dispatcher routes requests across a heterogeneous device fleet:
// least-outstanding-requests among routable, breaker-closed devices, with
// capacity weights from each device's peak FLOPS derated by its health
// fingerprint (quarantined PEs and adopted bandwidth derates shrink a
// replica's share). Failed attempts fail over to other replicas — each
// replica re-plans against its own H' through its fingerprint-keyed cache —
// and slow primaries are hedged with a second attempt.
type Dispatcher struct {
	devices []*Device
	idx     map[*Device]int
	cfg     Config
	o       *obs.Obs
	events  *EventLog
	brk     []*breaker.Breaker
	lat     []*ewma
	maxPeak float64

	rr   atomic.Uint64 // deterministic tie-break rotation
	quit chan struct{}
	once sync.Once
	wg   sync.WaitGroup

	probeMu sync.Mutex // one probe sweep at a time

	nRequests       atomic.Int64
	nFailovers      atomic.Int64
	nHedges         atomic.Int64
	nHedgeWins      atomic.Int64
	nBreakerTrips   atomic.Int64
	nReadmissions   atomic.Int64
	nProbes         atomic.Int64
	nNoDevice       atomic.Int64
	nClassFallbacks atomic.Int64
}

// NewDispatcher builds a dispatcher over the devices. Call Start to launch
// the device workers (and the background prober, if configured).
func NewDispatcher(devices []*Device, cfg Config) *Dispatcher {
	cfg = cfg.withDefaults()
	ev := cfg.Events
	if ev == nil {
		ev = NewEventLog(0)
	}
	f := &Dispatcher{
		devices: devices,
		idx:     make(map[*Device]int, len(devices)),
		cfg:     cfg,
		o:       cfg.Obs,
		events:  ev,
		brk:     make([]*breaker.Breaker, len(devices)),
		lat:     make([]*ewma, len(devices)),
		quit:    make(chan struct{}),
	}
	for i, d := range devices {
		f.idx[d] = i
		f.brk[i] = breaker.New(cfg.BreakerThreshold)
		f.lat[i] = &ewma{}
		if d.events == nil {
			d.events = ev
		}
		if p := d.h.PeakFLOPS(); p > f.maxPeak {
			f.maxPeak = p
		}
	}
	if f.maxPeak <= 0 {
		f.maxPeak = 1
	}
	return f
}

// Start launches every device worker and, when ProbeInterval is set, the
// background readmission prober.
func (f *Dispatcher) Start() {
	for _, d := range f.devices {
		d.Start()
	}
	if f.cfg.ProbeInterval > 0 {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			t := time.NewTicker(f.cfg.ProbeInterval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					f.ProbeNow(context.Background())
				case <-f.quit:
					return
				}
			}
		}()
	}
}

// Close stops the prober and every device worker.
func (f *Dispatcher) Close() {
	f.once.Do(func() { close(f.quit) })
	f.wg.Wait()
	for _, d := range f.devices {
		d.Close()
	}
}

// Devices returns the fleet members (routing order).
func (f *Dispatcher) Devices() []*Device { return f.devices }

// Events returns the fleet's operational event log.
func (f *Dispatcher) Events() *EventLog { return f.events }

// Device returns the named device, or nil.
func (f *Dispatcher) Device(name string) *Device {
	for _, d := range f.devices {
		if d.name == name {
			return d
		}
	}
	return nil
}

// Drain starts draining the named device: it takes no new work and goes
// dead once its queue runs dry.
func (f *Dispatcher) Drain(name string) error {
	d := f.Device(name)
	if d == nil {
		return fmt.Errorf("fleet: no device named %q", name)
	}
	if !d.StartDrain() {
		return fmt.Errorf("fleet: device %q is %s, cannot drain", name, d.State())
	}
	f.events.Append(name, "drain", "admin drain requested")
	return nil
}

// weight is a device's routing capacity: normalized peak FLOPS derated by
// its health fingerprint — the live-PE fraction and any adopted bandwidth
// derate. A degraded replica keeps serving, just a proportionally smaller
// share.
func (f *Dispatcher) weight(d *Device) float64 {
	w := d.h.PeakFLOPS() / f.maxPeak
	v := d.reg.View()
	if v.NumPEs > 0 {
		w *= float64(v.NumPEs-len(v.Quarantined)) / float64(v.NumPEs)
	}
	if bf := v.BandwidthFactor; bf > 0 && bf < 1 {
		w *= bf
	}
	if w <= 0 || math.IsNaN(w) {
		w = 1e-9
	}
	return w
}

// pick selects the least-loaded eligible device: minimal
// (outstanding+1)/weight among routable, breaker-closed devices not in
// exclude, with a rotating deterministic tie-break so equal replicas share
// load round-robin. An open breaker sheds load only while an alternative
// exists: if every breaker-closed candidate is excluded or gone, the second
// pass admits routable devices with open breakers — quarantining the whole
// fleet at once would serve nobody, and "no request with a surviving capable
// device fails" outranks quarantine.
//
// A non-empty class restricts routing to devices of that class (pool
// separation: prefill and decode waves on disjoint replicas) with the same
// survival clause: when no device of the class is routable, the class
// constraint is dropped rather than failing the request, and the fallback is
// counted and logged.
func (f *Dispatcher) pick(exclude map[*Device]bool, class string) *Device {
	n := len(f.devices)
	if n == 0 {
		return nil
	}
	rot := int(f.rr.Add(1)) % n
	classes := []string{class}
	if class != "" {
		classes = append(classes, "")
	}
	for _, cl := range classes {
		for _, ignoreBreakers := range []bool{false, true} {
			var best *Device
			bestScore := math.Inf(1)
			for i := 0; i < n; i++ {
				k := (rot + i) % n
				d := f.devices[k]
				if exclude[d] || !d.Routable() || (!ignoreBreakers && f.brk[k].State() != breaker.Closed) {
					continue
				}
				if cl != "" && d.class != cl {
					continue
				}
				score := float64(d.Outstanding()+1) / f.weight(d)
				if score < bestScore-1e-12 {
					best, bestScore = d, score
				}
			}
			if best != nil {
				if cl == "" && class != "" {
					f.nClassFallbacks.Add(1)
					f.events.Append(best.name, "class-fallback",
						"no routable "+class+" device; crossing pools")
				}
				return best
			}
		}
	}
	return nil
}

// strike records a failure against a device's breaker (crashes trip it
// immediately — no point counting a dead device to the threshold).
func (f *Dispatcher) strike(d *Device, err error) {
	i := f.idx[d]
	tripped := false
	if errors.Is(err, ErrDeviceCrashed) || errors.Is(err, ErrDeviceDown) {
		tripped = f.brk[i].ForceOpen()
	} else {
		tripped = f.brk[i].Record(false)
	}
	if tripped {
		f.nBreakerTrips.Add(1)
		f.events.Append(d.name, "breaker-open", err.Error())
	}
}

// recordOutcome settles one attempt outcome into the breaker and latency
// books. Devices already penalized at hedge-fire time are skipped entirely —
// success included: the hedge-fire strike is the deterministic slowness
// verdict, and a penalized primary that eventually completes must not reset
// it or book its inflated latency. Pure caller cancellations and queue-full
// rejections are also skipped (load, not fault).
func (f *Dispatcher) recordOutcome(d *Device, err error, dur time.Duration, penalized map[*Device]bool) {
	if penalized[d] {
		return
	}
	if err == nil {
		f.lat[f.idx[d]].observe(dur)
		f.brk[f.idx[d]].Record(true)
		return
	}
	if errors.Is(err, ErrDeviceBusy) || !retryableOn(err) {
		return
	}
	f.strike(d, err)
}

// recordLateOutcome settles a losing attempt that resolved after the request
// already had a winner. A late success is dropped outright — the request's
// success and latency were booked for the winner, so counting the loser too
// would double-book the request into the mik_fleet_* books and feed its EWMA
// a duration inflated by losing the race (it includes the time spent losing,
// not the device's service time). Genuine faults from non-penalized losers
// still strike their breaker: losing the race does not launder a crash.
func (f *Dispatcher) recordLateOutcome(d *Device, err error, penalized map[*Device]bool) {
	if penalized[d] || err == nil {
		return
	}
	if errors.Is(err, ErrDeviceBusy) || !retryableOn(err) {
		return
	}
	f.strike(d, err)
}

// outcome is one resolved execution attempt.
type outcome struct {
	d   *Device
	v   any
	err error
	dur time.Duration
}

// attempt runs one request attempt on primary, hedging onto a second
// replica if the primary exceeds its latency estimate. It returns the
// winning value and device plus the number of attempts launched.
func (f *Dispatcher) attempt(ctx context.Context, primary *Device, tried map[*Device]bool, class string,
	run func(ctx context.Context, d *Device, salt uint64) (any, error), baseSalt uint64,
) (any, *Device, int, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch := make(chan outcome, 2)
	launch := func(d *Device, salt uint64) {
		start := time.Now()
		go func() {
			v, err := run(actx, d, salt)
			ch <- outcome{d: d, v: v, err: err, dur: time.Since(start)}
		}()
	}
	launch(primary, baseSalt)
	launched, pending := 1, 1
	penalized := make(map[*Device]bool)
	hedged := false

	var hedgeC <-chan time.Time
	if f.cfg.HedgeAfter >= 0 {
		t := time.NewTimer(f.hedgeDelay(primary))
		defer t.Stop()
		hedgeC = t.C
	}

	// settle cancels and drains still-pending attempts in the background
	// after the attempt resolves. Late losers go through recordLateOutcome:
	// their successes and latencies are excluded from the books (the winner
	// already booked the request), while genuine faults from non-penalized
	// losers still strike their breaker.
	settle := func(c context.CancelFunc) {
		c()
		if pending == 0 {
			return
		}
		n := pending
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for i := 0; i < n; i++ {
				out := <-ch
				f.recordLateOutcome(out.d, out.err, penalized)
			}
		}()
	}

	var firstErr error
	for pending > 0 {
		select {
		case out := <-ch:
			pending--
			if out.err == nil {
				f.recordOutcome(out.d, nil, out.dur, penalized)
				settle(cancel)
				if hedged && out.d != primary {
					f.nHedgeWins.Add(1)
					f.events.Append(out.d.name, "hedge-win", "hedge beat "+primary.name)
				}
				return out.v, out.d, launched, nil
			}
			f.recordOutcome(out.d, out.err, out.dur, penalized)
			if firstErr == nil || (!retryableOn(firstErr) && retryableOn(out.err)) {
				firstErr = out.err
			}
		case <-hedgeC:
			hedgeC = nil
			h := f.pick(tried, class)
			if h == nil {
				continue
			}
			tried[h] = true
			// The primary exceeding its latency estimate is itself the
			// misbehavior signal: strike its breaker now, synchronously, so
			// hung replicas trip deterministically even though their attempt
			// only resolves after cancellation.
			penalized[primary] = true
			f.strike(primary, ErrDeviceHung)
			f.nHedges.Add(1)
			f.events.Append(primary.name, "hedge", "hedging onto "+h.name)
			launch(h, baseSalt+1)
			launched++
			pending++
			hedged = true
		case <-ctx.Done():
			settle(cancel)
			return nil, nil, launched, ctx.Err()
		}
	}
	return nil, nil, launched, firstErr
}

// hedgeDelay is the wait before a second attempt fires for this primary.
func (f *Dispatcher) hedgeDelay(d *Device) time.Duration {
	est := f.lat[f.idx[d]].get()
	delay := time.Duration(hedgeMult * float64(est))
	if delay < f.cfg.HedgeAfter {
		delay = f.cfg.HedgeAfter
	}
	return delay
}

// do routes one request: pick, attempt (with hedging), and fail over to
// other replicas on device-local failure, bounded by MaxAttempts. Each
// attempt carries a distinct salt so transient injected faults can clear.
// A non-empty class prefers devices of that class (see pick).
func (f *Dispatcher) do(ctx context.Context, kind, class string,
	run func(ctx context.Context, d *Device, salt uint64) (any, error),
) (any, *Device, int, error) {
	ctx, sp := f.o.T().Start(ctx, "fleet.dispatch")
	defer sp.End()
	f.nRequests.Add(1)
	tried := make(map[*Device]bool)
	attempts := 0
	var lastErr error
	for attempts < f.cfg.MaxAttempts {
		d := f.pick(tried, class)
		if d == nil {
			if len(tried) == 0 {
				f.nNoDevice.Add(1)
				sp.Attr("no_device", 1)
				return nil, nil, attempts, ErrNoDevices
			}
			// Every eligible replica has been tried once this request:
			// allow re-tries (a fresh salt can clear transient faults on
			// an otherwise healthy device).
			clear(tried)
			d = f.pick(tried, class)
			if d == nil {
				f.nNoDevice.Add(1)
				break
			}
		}
		tried[d] = true
		v, winner, n, err := f.attempt(ctx, d, tried, class, run, uint64(attempts))
		attempts += n
		if err == nil {
			sp.Attr("attempts", float64(attempts))
			return v, winner, attempts, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, nil, attempts, ctx.Err()
		}
		if !retryableOn(err) {
			return nil, nil, attempts, err
		}
		if attempts < f.cfg.MaxAttempts {
			f.nFailovers.Add(1)
			f.events.Append(d.name, "failover", kind+": "+err.Error())
		}
	}
	if lastErr == nil {
		lastErr = ErrNoDevices
	}
	return nil, nil, attempts, fmt.Errorf("fleet: %s failed after %d attempts: %w", kind, attempts, lastErr)
}

// ExecGemm routes one GEMM execution across the fleet.
func (f *Dispatcher) ExecGemm(ctx context.Context, shape tensor.GemmShape, seedA, seedB uint64) (GemmResult, error) {
	v, d, attempts, err := f.do(ctx, "gemm", "", func(ctx context.Context, dev *Device, salt uint64) (any, error) {
		res, err := dev.ExecGemm(ctx, shape, seedA, seedB, salt)
		if err != nil {
			return nil, err
		}
		return res, nil
	})
	if err != nil {
		return GemmResult{Shape: shape, Attempts: attempts}, err
	}
	g := v.(GemmResult)
	g.Attempts = attempts
	g.Device = d.name
	return g, nil
}

// ExecModel routes one model-graph execution across the fleet, returning the
// runtime report, the serving device's name, and the attempt count.
func (f *Dispatcher) ExecModel(ctx context.Context, g nn.Graph) (graphrt.Report, string, int, error) {
	return f.ExecModelClass(ctx, g, "")
}

// ExecModelClass routes one model-graph execution preferring devices of the
// given class — the pool-separation primitive: a serving scheduler sends
// prefill chunks to one device class and decode waves to another, so long
// prefills never stall a decode step. An empty class routes anywhere; a
// class with no routable device falls back to the whole fleet (counted in
// DispatchStats.ClassFallbacks) rather than failing the request.
func (f *Dispatcher) ExecModelClass(ctx context.Context, g nn.Graph, class string) (graphrt.Report, string, int, error) {
	v, d, attempts, err := f.do(ctx, "model", class, func(ctx context.Context, dev *Device, salt uint64) (any, error) {
		rep, err := dev.ExecModel(ctx, g, salt)
		if err != nil {
			return nil, err
		}
		return rep, nil
	})
	if err != nil {
		return graphrt.Report{}, "", attempts, err
	}
	return v.(graphrt.Report), d.name, attempts, nil
}

// ProbeNow sweeps the fleet once, sending a readmission canary to every
// device whose breaker is open past its cooldown. Dead and draining devices
// are skipped (they are not coming back). Returns the number of devices
// readmitted. The background prober calls this on its interval;
// deterministic tests call it directly.
func (f *Dispatcher) ProbeNow(ctx context.Context) int {
	f.probeMu.Lock()
	defer f.probeMu.Unlock()
	readmitted := 0
	for i, d := range f.devices {
		if !d.Routable() {
			continue
		}
		if !f.brk[i].BeginProbe(f.cfg.BreakerCooldown) {
			continue
		}
		pctx, cancel := context.WithTimeout(ctx, f.cfg.ProbeTimeout)
		_, err := d.ExecGemm(pctx, probeShape, 1, 2, 0x9e3779b97f4a7c15)
		cancel()
		f.nProbes.Add(1)
		ok := err == nil
		f.brk[i].ProbeResult(ok)
		if ok {
			readmitted++
			f.nReadmissions.Add(1)
			f.events.Append(d.name, "readmit", "probe succeeded, breaker closed")
		} else {
			f.events.Append(d.name, "probe-fail", err.Error())
		}
	}
	return readmitted
}

// BreakerState returns the named device's breaker state (closed if unknown).
func (f *Dispatcher) BreakerState(name string) breaker.State {
	for i, d := range f.devices {
		if d.name == name {
			return f.brk[i].State()
		}
	}
	return breaker.Closed
}

// Stats is the dispatcher's cumulative counter snapshot.
type Stats struct {
	Requests     int64 `json:"requests"`
	Failovers    int64 `json:"failovers"`
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedge_wins"`
	BreakerTrips int64 `json:"breaker_trips"`
	Readmissions int64 `json:"readmissions"`
	Probes       int64 `json:"probes"`
	NoDevice     int64 `json:"no_device"`
	// ClassFallbacks counts class-restricted requests that crossed pools
	// because no device of the requested class was routable.
	ClassFallbacks int64 `json:"class_fallbacks"`
}

// DispatchStats snapshots the cumulative routing counters.
func (f *Dispatcher) DispatchStats() Stats {
	return Stats{
		Requests:       f.nRequests.Load(),
		Failovers:      f.nFailovers.Load(),
		Hedges:         f.nHedges.Load(),
		HedgeWins:      f.nHedgeWins.Load(),
		BreakerTrips:   f.nBreakerTrips.Load(),
		Readmissions:   f.nReadmissions.Load(),
		Probes:         f.nProbes.Load(),
		NoDevice:       f.nNoDevice.Load(),
		ClassFallbacks: f.nClassFallbacks.Load(),
	}
}

// Summaries snapshots every device for /healthz and the admin endpoints.
func (f *Dispatcher) Summaries() []DeviceSummary {
	out := make([]DeviceSummary, len(f.devices))
	for i, d := range f.devices {
		out[i] = DeviceSummary{
			Name:        d.name,
			Class:       d.class,
			State:       d.State().String(),
			Breaker:     f.brk[i].State().String(),
			Fingerprint: d.reg.View().Fingerprint(),
			Outstanding: d.outstanding.Load(),
			Started:     d.started.Load(),
			Completed:   d.completed.Load(),
			Failed:      d.failed.Load(),
			Weight:      f.weight(d),
		}
	}
	return out
}
