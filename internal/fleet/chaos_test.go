package fleet

// The fleet chaos harness: seeded device-level fault schedules (crash, hang,
// brownout, slow replica) are replayed against a heterogeneous fleet while a
// deterministic request stream runs. Invariants:
//
//  1. zero failed requests — every fault in the schedule is recoverable
//     while at least one capable replica survives, so failover + hedging
//     must absorb all of them;
//  2. per-seed determinism — two runs of the same seed produce identical
//     request records (status + numeric digests);
//  3. bitwise-stable numerics — the chaos run's GEMM digests equal the
//     healthy fleet's, element for element, even when requests failed over
//     to a different device class;
//  4. bounded overhead — goodput degrades no worse than proportionally to
//     lost capacity, proxied as: all requests succeed with a mean attempt
//     count <= 2 while at most half the fleet is lost.
//
// The fleet event log is written to $FLEET_LOG_DIR (CI uploads it as an
// artifact on failure) and dumped into the test log when an invariant trips.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/nn"
	"mikpoly/internal/sched"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
	"mikpoly/internal/workload"
)

// chaosRecord is one request's outcome, reduced to the fields that must be
// deterministic across runs: routing (which device served) and simulated
// cycles legitimately vary with wall-clock hedging, numerics must not.
type chaosRecord struct {
	Kind     string
	Status   string
	Checksum float64
	Sample   []float32
}

var chaosShapes = []tensor.GemmShape{
	{M: 96, N: 96, K: 64},
	{M: 192, N: 160, K: 96},
	{M: 120, N: 200, K: 72},
	{M: 37, N: 29, K: 131},
}

const chaosRequests = 28

// buildChaosFleet assembles the standard harness fleet: 2×A100 + 2×NPU.
func buildChaosFleet(t *testing.T, faults []sim.DeviceFaults) *Dispatcher {
	t.Helper()
	classes := []hw.Hardware{hw.A100(), hw.Ascend910(), hw.A100(), hw.Ascend910()}
	devices := make([]*Device, len(classes))
	for i, h := range classes {
		cfg := DeviceConfig{Name: fmt.Sprintf("dev%d-%s", i, h.Name)}
		if i < len(faults) {
			cfg.DevFaults = faults[i]
		}
		devices[i] = NewDevice(testLib(t, h), cfg)
	}
	f := NewDispatcher(devices, Config{
		MaxAttempts:      8,
		HedgeAfter:       5 * time.Millisecond,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Millisecond,
	})
	f.Start()
	return f
}

// runChaosScenario replays the deterministic request stream against a fleet
// under the seed's fault schedule (or a healthy fleet when withFaults is
// false) and returns the per-request records plus the dispatcher for
// forensics. The caller owns Close.
func runChaosScenario(t *testing.T, seed uint64, withFaults bool) ([]chaosRecord, *Dispatcher) {
	t.Helper()
	var faults []sim.DeviceFaults
	if withFaults {
		faults = sim.FleetChaosSchedule(seed, 4, 2+chaosRequests/4)
	}
	f := buildChaosFleet(t, faults)

	records := make([]chaosRecord, 0, chaosRequests)
	for i := 0; i < chaosRequests; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if i%7 == 6 {
			// Every 7th request is a model graph through the per-device
			// graph runtimes (stage recovery ladder included).
			g, err := nn.BuildModel("llama2-decode", nn.ModelDims{Batch: 1, KVLen: 64})
			if err != nil {
				t.Fatalf("building model graph: %v", err)
			}
			_, _, _, err = f.ExecModel(ctx, g)
			records = append(records, chaosRecord{Kind: "model", Status: statusOf(err)})
		} else {
			shape := chaosShapes[i%len(chaosShapes)]
			res, err := f.ExecGemm(ctx, shape, uint64(i)+11, uint64(i)+22)
			rec := chaosRecord{Kind: "gemm", Status: statusOf(err)}
			if err == nil {
				rec.Checksum = res.Checksum
				rec.Sample = res.Sample
			}
			records = append(records, rec)
		}
		cancel()
		// A deterministic probe sweep partway through gives quarantined
		// devices (the hang victim) a readmission path mid-run.
		if i%8 == 7 {
			f.ProbeNow(context.Background())
		}
	}
	return records, f
}

func statusOf(err error) string {
	if err == nil {
		return "ok"
	}
	return "err: " + err.Error()
}

// dumpFleet writes the event log to $FLEET_LOG_DIR (when set) and, on test
// failure, into the test log.
func dumpFleet(t *testing.T, f *Dispatcher, tag string) {
	t.Helper()
	var sb strings.Builder
	if _, err := f.Events().WriteTo(&sb); err != nil {
		t.Logf("dumping event log: %v", err)
	}
	if dir := os.Getenv("FLEET_LOG_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			path := filepath.Join(dir, fmt.Sprintf("fleet-events-%s.log", tag))
			if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
				t.Logf("writing %s: %v", path, err)
			}
		}
	}
	if t.Failed() {
		t.Logf("fleet %s summaries: %+v", tag, f.Summaries())
		t.Logf("fleet %s stats: %+v", tag, f.DispatchStats())
		t.Logf("fleet %s event log:\n%s", tag, sb.String())
	}
}

// chaosSeeds returns the seed matrix: FLEET_CHAOS_SEEDS (comma-separated)
// overrides the default, which is what the CI job's matrix sets.
func chaosSeeds(t *testing.T) []uint64 {
	env := os.Getenv("FLEET_CHAOS_SEEDS")
	if env == "" {
		return []uint64{1, 7, 42}
	}
	var seeds []uint64
	for _, part := range strings.Split(env, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			t.Fatalf("bad FLEET_CHAOS_SEEDS entry %q: %v", part, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

func TestFleetChaosRecoverableFaultsLoseNoRequests(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			records, f := runChaosScenario(t, seed, true)
			defer f.Close()
			defer dumpFleet(t, f, fmt.Sprintf("seed%d", seed))

			for i, r := range records {
				if r.Status != "ok" {
					t.Errorf("request %d (%s) failed under a recoverable schedule: %s", i, r.Kind, r.Status)
				}
			}

			// Goodput proportionality proxy: the schedule loses at most 2 of
			// 4 replicas (one crash, one hang window); mean attempts per
			// request must stay <= 2, so throughput degrades no worse than
			// proportionally to the lost capacity.
			stats := f.DispatchStats()
			extra := stats.Failovers + stats.Hedges
			if extra > chaosRequests {
				t.Errorf("overhead attempts %d exceed request count %d — goodput degrades worse than proportionally", extra, chaosRequests)
			}

			// A crashed device freezes at its crash ordinal and serves
			// nothing afterwards.
			faults := sim.FleetChaosSchedule(seed, 4, 2+chaosRequests/4)
			for i, d := range f.Devices() {
				if faults[i].CrashAtOp > 0 && d.State() == StateDead {
					if got := d.started.Load(); got != int64(faults[i].CrashAtOp) {
						t.Errorf("crash victim %s started %d ops, want exactly %d", d.Name(), got, faults[i].CrashAtOp)
					}
				}
			}
		})
	}
}

func TestFleetChaosDeterministicPerSeed(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r1, f1 := runChaosScenario(t, seed, true)
			dumpFleet(t, f1, fmt.Sprintf("seed%d-run1", seed))
			f1.Close()
			r2, f2 := runChaosScenario(t, seed, true)
			dumpFleet(t, f2, fmt.Sprintf("seed%d-run2", seed))
			f2.Close()
			if !reflect.DeepEqual(r1, r2) {
				t.Errorf("seed %d: two runs diverged\nrun1: %+v\nrun2: %+v", seed, r1, r2)
			}
		})
	}
}

func TestFleetChaosNumericsBitwiseEqualHealthyFleet(t *testing.T) {
	seeds := chaosSeeds(t)
	healthy, fh := runChaosScenario(t, seeds[0], false)
	dumpFleet(t, fh, "healthy")
	fh.Close()
	for i, r := range healthy {
		if r.Status != "ok" {
			t.Fatalf("healthy fleet request %d failed: %s", i, r.Status)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			chaos, f := runChaosScenario(t, seed, true)
			defer f.Close()
			defer dumpFleet(t, f, fmt.Sprintf("seed%d-numerics", seed))
			for i := range healthy {
				if healthy[i].Kind != "gemm" || chaos[i].Status != "ok" {
					continue
				}
				if chaos[i].Checksum != healthy[i].Checksum {
					t.Errorf("request %d: chaos checksum %g != healthy %g — failover changed numerics",
						i, chaos[i].Checksum, healthy[i].Checksum)
				}
				if !reflect.DeepEqual(chaos[i].Sample, healthy[i].Sample) {
					t.Errorf("request %d: chaos sample %v != healthy %v", i, chaos[i].Sample, healthy[i].Sample)
				}
			}
		})
	}
}

// TestFleetChaosDrainDuringChaos drains a healthy replica mid-run while the
// fault schedule is live: requests must keep succeeding on what remains.
func TestFleetChaosDrainDuringChaos(t *testing.T) {
	seed := chaosSeeds(t)[0]
	faults := sim.FleetChaosSchedule(seed, 4, 2+chaosRequests/4)
	f := buildChaosFleet(t, faults)
	defer f.Close()
	defer dumpFleet(t, f, "drain")

	// Find a device with no crash/hang role to drain (always exists: 4
	// devices, at most 2 such roles).
	victim := ""
	for i, d := range f.Devices() {
		if faults[i].CrashAtOp == 0 && faults[i].HangAtOp == 0 {
			victim = d.Name()
			break
		}
	}
	shape := chaosShapes[0]
	for i := 0; i < 16; i++ {
		if i == 5 {
			if err := f.Drain(victim); err != nil {
				t.Fatalf("drain %s: %v", victim, err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		if _, err := f.ExecGemm(ctx, shape, 1, 2); err != nil {
			cancel()
			t.Fatalf("request %d (drain at 5): %v", i, err)
		}
		cancel()
	}
	// Draining completes asynchronously once the victim's queue runs dry (a
	// hedge-loser op may still be settling), so poll rather than assert.
	d := f.Device(victim)
	deadline := time.Now().Add(10 * time.Second)
	for d.State() != StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("drained device %s state = %s, want dead", victim, d.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFleetChaosKVNoLeakNoStrandedTenants drives the SLO-aware generation
// scheduler (internal/sched) through a chaos fleet: prefill chunks route to
// the A100 class and decode waves to the NPU class via class-restricted
// dispatch, while the seed's fault schedule crashes and hangs devices
// mid-stream. Invariants, per seed:
//
//  1. no leaked KV pages — every request that dies mid-decode (device crash
//     surfacing as an executor error) must release its pages, so after the
//     replay drains the KV manager is quiescent and LeakedPages == 0;
//  2. no stranded tenant queue — every trace request resolves as completed
//     or failed; no tenant keeps undrained work after the replay returns.
func TestFleetChaosKVNoLeakNoStrandedTenants(t *testing.T) {
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			faults := sim.FleetChaosSchedule(seed, 4, 2+chaosRequests/4)
			f := buildChaosFleet(t, faults)
			defer f.Close()

			// The pool label routes over the heterogeneous fleet: prefill
			// prefers the A100 class, decode the NPU class. ExecModelClass
			// crosses classes rather than failing when a whole class is
			// down, so a crash only surfaces as an error once no capable
			// device is routable at all.
			exec := sched.ExecutorFunc(func(ctx context.Context, g nn.Graph, pool string) (float64, error) {
				class := hw.A100().Name
				if pool == sched.PoolDecode {
					class = hw.Ascend910().Name
				}
				rep, _, _, err := f.ExecModelClass(ctx, g, class)
				if err != nil {
					return 0, err
				}
				return rep.Cycles, nil
			})
			s := sched.New(exec, sched.Config{
				HW: hw.A100(),
				KV: kvcache.Config{NumPages: 512},
				// Generous bounds: chaos probes liveness and accounting,
				// not latency; the serve bench owns the SLO numbers.
				StepSLOMs: 500, TTFTSLOMs: 10000,
			})
			trace := workload.GenerateTrace(workload.TraceConfig{
				Seed:      seed,
				Requests:  20,
				Tenants:   3,
				PromptMin: 32, PromptMax: 256,
				DecodeMin: 4, DecodeMax: 24,
			})
			perTenant := make(map[string]int)
			for _, tr := range trace {
				perTenant[tr.Tenant]++
			}

			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			rep, results, err := s.Replay(ctx, trace)
			if err != nil {
				dumpFleet(t, f, "kv-replay-error")
				t.Fatalf("seed %d: replay: %v", seed, err)
			}

			// Invariant 2: every request resolved, per tenant.
			if rep.Completed+rep.Failed != len(trace) {
				dumpFleet(t, f, "kv-stranded")
				t.Fatalf("seed %d: %d completed + %d failed != %d submitted: stranded requests",
					seed, rep.Completed, rep.Failed, len(trace))
			}
			gotTenant := make(map[string]int)
			for _, r := range results {
				gotTenant[r.Tenant]++
			}
			if !reflect.DeepEqual(gotTenant, perTenant) {
				dumpFleet(t, f, "kv-stranded-tenant")
				t.Fatalf("seed %d: per-tenant resolution %v, want %v (stranded tenant queue)",
					seed, gotTenant, perTenant)
			}
			if rep.Completed == 0 {
				dumpFleet(t, f, "kv-all-failed")
				t.Fatalf("seed %d: no request completed under chaos; failover is not absorbing faults", seed)
			}

			// Invariant 1: crash mid-decode must not leak KV pages.
			if rep.LeakedPages != 0 {
				dumpFleet(t, f, "kv-leak")
				t.Fatalf("seed %d: %d leaked KV pages after drain", seed, rep.LeakedPages)
			}
			if qerr := s.KV().Quiescent(); qerr != nil {
				dumpFleet(t, f, "kv-not-quiescent")
				t.Fatalf("seed %d: KV manager not quiescent after replay: %v", seed, qerr)
			}
		})
	}
}
