package fleet

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"mikpoly/internal/breaker"
	"mikpoly/internal/hw"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// newTestFleet builds and starts a dispatcher over devices with the given
// per-device fault domains (nil entries mean healthy). Hardware classes
// alternate A100/Ascend910 for heterogeneity unless homog is set.
func newTestFleet(t *testing.T, n int, faults []sim.DeviceFaults, cfg Config, homog bool) *Dispatcher {
	t.Helper()
	devices := make([]*Device, n)
	for i := 0; i < n; i++ {
		h := hw.A100()
		if !homog && i%2 == 1 {
			h = hw.Ascend910()
		}
		dc := DeviceConfig{Name: h.Name[:4] + "-" + string(rune('0'+i))}
		if i < len(faults) {
			dc.DevFaults = faults[i]
		}
		devices[i] = NewDevice(testLib(t, h), dc)
	}
	f := NewDispatcher(devices, cfg)
	f.Start()
	t.Cleanup(f.Close)
	return f
}

func fastCfg() Config {
	return Config{
		MaxAttempts:      6,
		HedgeAfter:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Millisecond,
	}
}

func TestDispatcherSpreadsLoadAcrossReplicas(t *testing.T) {
	f := newTestFleet(t, 2, nil, fastCfg(), true)
	shape := tensor.GemmShape{M: 96, N: 96, K: 64}
	for i := 0; i < 8; i++ {
		if _, err := f.ExecGemm(context.Background(), shape, uint64(i+1), 2); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, s := range f.Summaries() {
		if s.Completed == 0 {
			t.Fatalf("replica %s served nothing; tie-break rotation is not spreading load: %+v", s.Name, f.Summaries())
		}
	}
}

func TestDispatcherFailsOverOnCrash(t *testing.T) {
	f := newTestFleet(t, 2, []sim.DeviceFaults{{CrashAtOp: 1}}, fastCfg(), false)
	shape := tensor.GemmShape{M: 96, N: 96, K: 64}
	var sawFailover bool
	for i := 0; i < 4; i++ {
		res, err := f.ExecGemm(context.Background(), shape, 1, 2)
		if err != nil {
			t.Fatalf("request %d: %v (a healthy replica survives, nothing may fail)", i, err)
		}
		if res.Attempts > 1 {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatal("the crash victim was never tried; rotation should have routed at least one primary to it")
	}
	crashed := f.devices[0]
	if crashed.State() != StateDead {
		t.Fatalf("crash victim state = %s, want dead", crashed.State())
	}
	if st := f.BreakerState(crashed.name); st != breaker.Open {
		t.Fatalf("crash victim breaker = %s, want open (forceOpen on crash)", st)
	}
	if stats := f.DispatchStats(); stats.Failovers == 0 {
		t.Fatalf("no failovers recorded: %+v", stats)
	}
}

func TestDispatcherHedgesAroundHangAndProberReadmits(t *testing.T) {
	// Device 0 hangs for ops 1-2; device 1 is healthy. Whenever the hung
	// device is picked as primary, the hedge must fire and win; with a
	// threshold of 1 the first hedge opens its breaker and keeps live
	// traffic off it, so exactly one hang op remains for the prober.
	cfg := fastCfg()
	cfg.BreakerThreshold = 1
	cfg.ProbeTimeout = 20 * time.Millisecond
	f := newTestFleet(t, 2, []sim.DeviceFaults{{HangAtOp: 1, HangOps: 2}}, cfg, false)
	shape := tensor.GemmShape{M: 96, N: 96, K: 64}
	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := f.ExecGemm(ctx, shape, 1, 2); err != nil {
			cancel()
			t.Fatalf("request %d: %v", i, err)
		}
		cancel()
	}
	stats := f.DispatchStats()
	if stats.Hedges == 0 {
		t.Fatalf("no hedges fired around the hung device: %+v", stats)
	}
	hung := f.devices[0]
	if st := f.BreakerState(hung.name); st != breaker.Open {
		t.Fatalf("hung device breaker = %s, want open after a hedge strike", st)
	}
	if hung.State() == StateDead {
		t.Fatal("a hang is recoverable; the device must not be dead")
	}

	// First probe canary lands on the last hang op: it must time out and
	// keep the breaker open.
	time.Sleep(2 * time.Millisecond)
	if hung.started.Load() < 2 {
		if n := f.ProbeNow(context.Background()); n != 0 {
			t.Fatalf("probe into the hang window readmitted %d devices, want 0", n)
		}
		if st := f.BreakerState(hung.name); st != breaker.Open {
			t.Fatalf("breaker after failed probe = %s, want open", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The hang window is now consumed: the next canary must readmit.
	if n := f.ProbeNow(context.Background()); n != 1 {
		t.Fatalf("ProbeNow readmitted %d devices, want 1", n)
	}
	if st := f.BreakerState(hung.name); st != breaker.Closed {
		t.Fatalf("breaker after successful probe = %s, want closed", st)
	}
	// The readmitted device receives traffic again. (Assert on ops started,
	// not completed: under the race detector an op can run slowly enough
	// that a hedge beats it, which is legitimate routing, not exclusion.)
	before := hung.started.Load()
	for i := 0; i < 4; i++ {
		if _, err := f.ExecGemm(context.Background(), shape, 1, 2); err != nil {
			t.Fatalf("post-readmit request %d: %v", i, err)
		}
	}
	if hung.started.Load() == before {
		t.Fatal("readmitted device received no traffic")
	}
}

func TestProbeFailureKeepsBreakerOpen(t *testing.T) {
	// Hang window wide enough that the probe canary itself hangs: the probe
	// must fail fast (its own timeout) and keep the breaker open.
	cfg := fastCfg()
	cfg.ProbeTimeout = 20 * time.Millisecond
	f := newTestFleet(t, 2, []sim.DeviceFaults{{HangAtOp: 1, HangOps: 1000}}, cfg, false)
	// The hung device's breaker runs on a clock that moves only when the
	// test advances it, so the cooldown elapses without a sleep.
	var offset atomic.Int64
	epoch := time.Now()
	f.brk[0].Now = func() time.Time { return epoch.Add(time.Duration(offset.Load())) }
	shape := tensor.GemmShape{M: 96, N: 96, K: 64}
	for i := 0; i < 6; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if _, err := f.ExecGemm(ctx, shape, 1, 2); err != nil {
			cancel()
			t.Fatalf("request %d: %v", i, err)
		}
		cancel()
	}
	if st := f.BreakerState(f.devices[0].name); st != breaker.Open {
		t.Skipf("hung device was never primary (breaker %s); nothing to probe", st)
	}
	offset.Add(int64(2 * cfg.BreakerCooldown))
	if n := f.ProbeNow(context.Background()); n != 0 {
		t.Fatalf("ProbeNow readmitted %d devices, want 0 (still hanging)", n)
	}
	if st := f.BreakerState(f.devices[0].name); st != breaker.Open {
		t.Fatalf("breaker after failed probe = %s, want open", st)
	}
}

func TestDispatcherDrain(t *testing.T) {
	f := newTestFleet(t, 2, nil, fastCfg(), true)
	name := f.devices[0].name
	if err := f.Drain(name); err != nil {
		t.Fatalf("Drain(%q): %v", name, err)
	}
	if f.devices[0].State() != StateDead {
		t.Fatalf("drained idle device state = %s, want dead", f.devices[0].State())
	}
	if err := f.Drain(name); err == nil {
		t.Fatal("draining a dead device must error")
	}
	if err := f.Drain("nope"); err == nil {
		t.Fatal("draining an unknown device must error")
	}
	// The survivor keeps serving.
	shape := tensor.GemmShape{M: 96, N: 96, K: 64}
	for i := 0; i < 3; i++ {
		res, err := f.ExecGemm(context.Background(), shape, 1, 2)
		if err != nil {
			t.Fatalf("post-drain request %d: %v", i, err)
		}
		if res.Device != f.devices[1].name {
			t.Fatalf("request served by %s, want survivor %s", res.Device, f.devices[1].name)
		}
	}
}

func TestDispatcherNoDevices(t *testing.T) {
	f := newTestFleet(t, 2, []sim.DeviceFaults{{CrashAtOp: 1}, {CrashAtOp: 1}}, fastCfg(), true)
	shape := tensor.GemmShape{M: 96, N: 96, K: 64}
	// Burn both devices down. The first requests may fail over and crash
	// both replicas; once the whole fleet is dead every request must fail
	// with a typed error, not hang or panic.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := f.ExecGemm(context.Background(), shape, 1, 2)
		if err != nil {
			if !errors.Is(err, ErrNoDevices) && !errors.Is(err, ErrDeviceCrashed) && !errors.Is(err, ErrDeviceDown) {
				t.Fatalf("unexpected error class: %v", err)
			}
			if errors.Is(err, ErrNoDevices) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never reached the all-dead state")
		}
	}
	if _, err := f.ExecGemm(context.Background(), shape, 1, 2); !errors.Is(err, ErrNoDevices) {
		t.Fatalf("all-dead fleet: err = %v, want ErrNoDevices", err)
	}
}

func TestDegradedDeviceIsDeratedInRouting(t *testing.T) {
	f := newTestFleet(t, 2, nil, fastCfg(), true)
	// Manufacture degradation on device 0 via its health registry: quarantine
	// PEs by feeding death observations is slow; instead check the weight
	// math directly through Summaries after a brownout run.
	d := f.devices[0]
	d.dev = sim.DeviceFaults{BrownoutFromOp: 1, BrownoutToOp: 100, BrownoutFactor: 0.5}
	shape := tensor.GemmShape{M: 192, N: 160, K: 96}
	for i := 0; i < 10; i++ {
		if _, err := d.ExecGemm(context.Background(), shape, 1, 2, uint64(i)); err != nil {
			t.Fatalf("brownout op %d: %v", i, err)
		}
	}
	if d.State() != StateDegraded {
		t.Fatalf("device 0 state = %s, want degraded", d.State())
	}
	sums := f.Summaries()
	if sums[0].Weight >= sums[1].Weight {
		t.Fatalf("degraded device weight %.3f not derated below healthy %.3f", sums[0].Weight, sums[1].Weight)
	}
}

func TestParseSpec(t *testing.T) {
	entries, err := ParseSpec([]byte(`[{"hw":"a100","replicas":2},{"hw":"ascend910"}]`))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Replicas != 2 || entries[1].Replicas != 1 {
		t.Fatalf("unexpected entries: %+v", entries)
	}
	for _, bad := range []string{``, `[]`, `[{"hw":"tpu"}]`, `[{"hw":"a100","replicas":-1}]`, `[{"hw":"a100","replicas":100}]`,
		`[{"hw":"a100","replicas":9223372036854775807},{"hw":"a100","replicas":1}]`} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("ParseSpec(%q) accepted invalid spec", bad)
		}
	}
}

func TestBuildDevices(t *testing.T) {
	entries, err := ParseSpec([]byte(`[{"hw":"a100","replicas":2},{"hw":"ascend910","replicas":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	// The library source decides per class: a100 gets a loaded artifact
	// (here a sentinel copy), every other class is tuned.
	a100 := *testLib(t, hw.A100())
	sentinel := &a100
	libFor := func(h hw.Hardware) (*tune.Library, error) {
		if h.Name == sentinel.HW.Name {
			return sentinel, nil
		}
		return testLib(t, h), nil
	}
	devices, err := BuildDevices(entries, libFor, DeviceConfig{}, []sim.DeviceFaults{{CrashAtOp: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(devices) != 3 {
		t.Fatalf("built %d devices, want 3", len(devices))
	}
	if devices[0].Name() != "a100-0" || devices[1].Name() != "a100-1" || devices[2].Name() != "ascend910-0" {
		t.Fatalf("unexpected names: %s %s %s", devices[0].Name(), devices[1].Name(), devices[2].Name())
	}
	if devices[0].dev.CrashAtOp != 5 || devices[1].dev.CrashAtOp != 0 {
		t.Fatal("per-index fault domains not applied")
	}
	// Replicas of one class share the source's library; compilers are private.
	if devices[0].Library() != sentinel || devices[1].Library() != sentinel {
		t.Fatal("a100 replicas must run the library the source returned for a100")
	}
	if devices[2].Library() != testLib(t, hw.Ascend910()) {
		t.Fatal("ascend910 replica must run the tuned library")
	}
	if devices[0].comp == devices[1].comp {
		t.Fatal("replicas must not share a compiler (plan caches are per-device)")
	}
	for _, d := range devices {
		d.Close()
	}
}

// FuzzParseSpec: whatever ParseSpec accepts names at least one replica per
// entry and no more than maxDevices in total, however large the counts in
// the input.
func FuzzParseSpec(f *testing.F) {
	f.Add(`[{"hw":"a100","replicas":2},{"hw":"ascend910"}]`)
	f.Add(`[{"name":"edge","hw":"a100cuda","replicas":64}]`)
	f.Add(`[{"hw":"a100","replicas":9223372036854775807},{"hw":"a100","replicas":1}]`)
	f.Add(`[{"hw":"npu","replicas":-3}]`)
	f.Fuzz(func(t *testing.T, spec string) {
		entries, err := ParseSpec([]byte(spec))
		if err != nil {
			return
		}
		total := 0
		for _, e := range entries {
			if e.Replicas < 1 || e.Replicas > maxDevices {
				t.Fatalf("accepted %q with %d replicas of %q", spec, e.Replicas, e.HW)
			}
			total += e.Replicas
		}
		if total < 1 || total > maxDevices {
			t.Fatalf("accepted %q with %d devices in total", spec, total)
		}
	})
}
