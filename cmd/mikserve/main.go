// Command mikserve runs the MikPoly compilation service: an HTTP server that
// polymerizes micro-kernel programs for the GEMM shapes clients POST to it
// and executes whole model graphs through the graph runtime.
//
//	mikserve -addr :8097
//	curl -s localhost:8097/plan -d '{"m":4096,"n":1024,"k":4096}'
//	curl -s localhost:8097/execute -d '{"m":128,"n":96,"k":64}'
//	curl -s localhost:8097/model -d '{"model":"bert-base","seq":384}'
//	curl -s -H 'X-Tenant: acme' localhost:8097/generate -d '{"prompt_len":512,"steps":32}'
//	curl -s localhost:8097/healthz
//	curl -s localhost:8097/stats
//	curl -s localhost:8097/metrics
//	curl -s localhost:8097/trace
//
// The serving layer (internal/serve) provides admission control, request
// timeouts and size limits, panic recovery, planner deadlines with graceful
// degradation to an always-legal fallback program, and — when fault injection
// is enabled — re-planning with exponential backoff. Model graphs run with
// asynchronous plan-ahead (-plan-ahead); llama2-decode runs its steps as
// successive step graphs. With -sched, POST /generate runs requests through
// the SLO-aware generation scheduler: paged KV cache with prefix reuse,
// chunked prefill interleaved with decode waves, and token-budget admission
// (429 + Retry-After when the in-flight token budget is exhausted).
//
// Overload defenses (all opt-in): -adaptive-admission replaces the static
// token budget with an AIMD limiter driven by step-SLO feedback;
// -shed-deadlines answers 504 for queued requests that can no longer meet
// their deadline (-deadline-ms or per-request deadline_ms); -kv-preempt
// parks the least-important running sequence under KV-arena pressure and
// restores it losslessly via prefix-cache recompute; -brownout runs the
// graduated degradation ladder and exports its stage as mik_overload_stage.
//
// The socket binds immediately; the micro-kernel library loads (-library)
// or tunes in the background, and /healthz answers 503 until it is ready.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling handlers, mounted only under -pprof
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/fleet"
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
	"mikpoly/internal/plancache"
	"mikpoly/internal/serve"
	"mikpoly/internal/sim"
	"mikpoly/internal/tune"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8097", "listen address")
		hwName      = flag.String("hw", "a100", "hardware model: a100, a100cuda, ascend910")
		cacheCap    = flag.Int("cache", core.DefaultCacheCapacity, "program cache capacity (LRU entries)")
		inFlight    = flag.Int("inflight", 0, "max in-flight requests (0 = default)")
		planTimeout = flag.Duration("plan-timeout", 0, "planner deadline; exceeded plans degrade to the fallback program (0 = default, negative = always degrade)")
		reqTimeout  = flag.Duration("timeout", 0, "per-request timeout (0 = default)")
		faultRate   = flag.Float64("fault-rate", 0, "injected transient task-fault probability [0,1]")
		faultSeed   = flag.Uint64("fault-seed", 1, "fault injection seed")
		dropPEs     = flag.Int("drop-pes", 0, "number of simulated dead PEs")
		chaosSeed   = flag.Uint64("chaos-seed", 0, "run under a seeded chaos schedule (PE death, sticky faults, brownouts); 0 disables")
		library     = flag.String("library", "", "load the micro-kernel library from this file instead of tuning (falls back to tuning if unreadable)")
		saveLibrary = flag.String("save-library", "", "after tuning, save the micro-kernel library to this file")
		planAhead   = flag.Int("plan-ahead", 2, "graph-runtime plan-ahead depth for /model (<= 0 = sequential inline planning)")
		withTrace   = flag.Bool("trace", true, "record execution spans, served at GET /trace")
		traceCap    = flag.Int("trace-cap", obs.DefaultTraceCapacity, "span ring-buffer capacity for -trace")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		fleetSpec   = flag.String("fleet", "", `device-fleet spec, JSON or @file: [{"hw":"a100","replicas":2},{"hw":"ascend910","replicas":1}]; enables POST /gemm and fleet-routed /model`)
		fleetChaos  = flag.Uint64("fleet-chaos-seed", 0, "run the fleet under a seeded device-level chaos schedule (crash, hang, brownout, slow replica); 0 disables")
		schedOn     = flag.Bool("sched", false, "enable the SLO-aware generation scheduler and POST /generate (paged KV cache, prefix reuse, chunked prefill)")
		kvPages     = flag.Int("kv-pages", 0, "KV-cache capacity in pages for -sched (0 = default)")
		prefillChk  = flag.Int("prefill-chunk", 0, "largest prefill chunk in tokens for -sched (0 = default)")
		stepSLO     = flag.Float64("slo-ms", 0, "decode-step latency SLO in milliseconds for -sched (0 = default)")
		ttftSLO     = flag.Float64("ttft-slo-ms", 0, "time-to-first-token SLO in milliseconds for -sched (0 = default)")
		schedBudget = flag.Int64("sched-tokens", 0, "in-flight token budget for -sched admission; over-budget requests get 429 + Retry-After (0 = default)")
		tenants     = flag.String("tenants", "", "comma-separated X-Tenant allowlist for /generate (empty = any tenant admitted)")
		adaptiveAdm = flag.Bool("adaptive-admission", false, "AIMD admitted-token limiter for -sched: cut the budget on step-SLO violations, grow it while waves run clean")
		shedDead    = flag.Bool("shed-deadlines", false, "shed queued /generate requests whose wait alone exceeds their deadline (504 instead of late work)")
		deadlineMs  = flag.Float64("deadline-ms", 0, "default per-request deadline budget in milliseconds for -shed-deadlines (0 = the TTFT SLO bound; requests may override via deadline_ms)")
		kvPreempt   = flag.Bool("kv-preempt", false, "preempt the least-important running sequence under KV-arena pressure and restore it via prefix-cache recompute (bitwise-identical output)")
		brownout    = flag.Bool("brownout", false, "graduated load-shedding ladder: disable tracing, shrink prefill chunks, stretch hedging, shed lowest-priority traffic as overload deepens (exported as mik_overload_stage)")
		planSnap    = flag.String("plan-snapshot", "", "persistent plan-cache snapshot file: warm-start the program cache from it at bind and flush back via POST /plancache/save (incompatible snapshots are rejected; the server plans online)")
		snapEvery   = flag.Duration("snapshot-interval", 0, "periodically pre-plan traffic-hot shapes and rewrite -plan-snapshot (0 disables the background flusher)")
	)
	flag.Parse()

	var h hw.Hardware
	switch *hwName {
	case "a100":
		h = hw.A100()
	case "a100cuda":
		h = hw.A100CUDACores()
	case "ascend910":
		h = hw.Ascend910()
	default:
		fmt.Fprintf(os.Stderr, "unknown hardware %q\n", *hwName)
		os.Exit(2)
	}

	o := obs.New(*traceCap)
	o.T().SetEnabled(*withTrace)

	cfg := serve.Config{
		MaxInFlight:      *inFlight,
		RequestTimeout:   *reqTimeout,
		PlanTimeout:      *planTimeout,
		PlanSnapshotPath: *planSnap,
		SnapshotInterval: *snapEvery,
		Obs:              o,
	}
	if *planSnap != "" {
		log.Printf("mikserve: plan-cache snapshot at %s (flush interval %v)", *planSnap, *snapEvery)
	}
	if *planAhead <= 0 {
		cfg.PlanAhead = -1 // sequential
	} else {
		cfg.PlanAhead = *planAhead
	}
	// Any scheduler-specific flag implies -sched so `-kv-pages 4096` alone
	// does what it reads like.
	if *schedOn || *kvPages > 0 || *prefillChk > 0 || *stepSLO > 0 || *ttftSLO > 0 || *schedBudget > 0 ||
		*adaptiveAdm || *shedDead || *deadlineMs > 0 || *kvPreempt {
		cfg.SchedDecode = true
		cfg.KVPages = *kvPages
		cfg.PrefillChunk = *prefillChk
		cfg.StepSLOMs = *stepSLO
		cfg.TTFTSLOMs = *ttftSLO
		cfg.SchedInFlightTokens = *schedBudget
		cfg.AdaptiveAdmission = *adaptiveAdm
		cfg.ShedDeadlines = *shedDead || *deadlineMs > 0
		cfg.DeadlineMs = *deadlineMs
		cfg.KVPreempt = *kvPreempt
		log.Printf("mikserve: generation scheduler enabled (POST /generate)")
		if cfg.AdaptiveAdmission || cfg.ShedDeadlines || cfg.KVPreempt {
			log.Printf("mikserve: overload defenses: adaptive=%v shed-deadlines=%v (deadline %gms) kv-preempt=%v",
				cfg.AdaptiveAdmission, cfg.ShedDeadlines, cfg.DeadlineMs, cfg.KVPreempt)
		}
	}
	if *brownout {
		cfg.Brownout = true
		log.Printf("mikserve: brownout ladder enabled (mik_overload_stage)")
	}
	if *tenants != "" {
		for _, t := range strings.Split(*tenants, ",") {
			if t = strings.TrimSpace(t); t != "" {
				cfg.Tenants = append(cfg.Tenants, t)
			}
		}
	}
	switch {
	case *chaosSeed != 0:
		f := sim.ChaosSchedule(*chaosSeed, h)
		cfg.Faults = &f
		log.Printf("mikserve: chaos schedule enabled (seed=%d): PE death %v, sticky %v, brownout %v, task fault rate %g",
			*chaosSeed, f.PEDeathCycle, f.StickyFaults, f.Brownout != nil, f.TaskFaultRate)
	case *faultRate > 0 || *dropPEs > 0:
		f := &sim.Faults{Seed: *faultSeed, TaskFaultRate: *faultRate}
		for pe := 0; pe < *dropPEs && pe < h.NumPEs; pe++ {
			f.DropPEs = append(f.DropPEs, pe)
		}
		cfg.Faults = f
		log.Printf("mikserve: fault injection enabled (rate=%g, dead PEs=%v, seed=%d)",
			*faultRate, f.DropPEs, *faultSeed)
	}

	// Bind the socket and start serving immediately; work endpoints and
	// /healthz answer 503 until the library below is ready.
	srv := serve.New(nil, cfg)
	defer srv.Close()
	handler := srv.Handler()
	if *withPprof {
		// pprof registers on http.DefaultServeMux; mount it next to the
		// service on an outer mux so profiling never rides through the
		// admission/timeout middleware.
		outer := http.NewServeMux()
		outer.Handle("/debug/pprof/", http.DefaultServeMux)
		outer.Handle("/", handler)
		handler = outer
		log.Printf("mikserve: pprof enabled at /debug/pprof/")
	}
	hs := &http.Server{
		Addr:         *addr,
		Handler:      handler,
		ReadTimeout:  15 * time.Second,
		WriteTimeout: 30 * time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	go func() {
		if *fleetSpec != "" {
			if err := bindFleet(srv, o, *fleetSpec, *fleetChaos, *cacheCap, *planSnap); err != nil {
				log.Fatalf("mikserve: -fleet: %v", err)
			}
			return
		}
		lib := loadOrTune(h, *library, *saveLibrary, *cacheCap)
		srv.SetCompiler(core.NewCompilerFromLibrary(lib,
			core.WithCacheCapacity(*cacheCap), core.WithObs(o)))
		log.Printf("mikserve: ready (%d kernels for %s)", len(lib.Kernels), lib.HW.Name)
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			log.Printf("mikserve: shutdown: %v", err)
		}
	}()

	log.Printf("mikserve: serving on http://%s (plan, execute, model, healthz, stats, metrics, trace)", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// HTTP connections are drained; now stop the background machinery (the
	// generation scheduler and, when -fleet is set, the device workers and
	// prober) so the process exits with no work in flight.
	srv.Close()
	log.Print("mikserve: drained and stopped")
}

// bindFleet parses the -fleet spec (raw JSON or @file), builds and starts the
// device fleet, and binds it to the server. The first device class's library
// also backs the single-device endpoints (/plan, /execute), so the server
// goes fully ready in one step.
func bindFleet(srv *serve.Server, o *obs.Obs, spec string, chaosSeed uint64, cacheCap int, snapPath string) error {
	raw := []byte(spec)
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return err
		}
		raw = data
	}
	entries, err := fleet.ParseSpec(raw)
	if err != nil {
		return err
	}
	total := 0
	for _, e := range entries {
		total += e.Replicas
	}
	var devFaults []sim.DeviceFaults
	if chaosSeed != 0 {
		devFaults = sim.FleetChaosSchedule(chaosSeed, total, 64)
		log.Printf("mikserve: fleet chaos schedule enabled (seed=%d over %d devices)", chaosSeed, total)
	}
	base := fleet.DeviceConfig{Obs: o}
	if snapPath != "" {
		// Every device validates the snapshot against its own library hash,
		// so in a mixed fleet only the matching class warm-starts; the rest
		// reject it and plan online.
		if snap, err := plancache.LoadFile(snapPath); err != nil {
			log.Printf("mikserve: -plan-snapshot %s: %v; devices start cold", snapPath, err)
		} else {
			base.PlanSnapshot = snap
		}
	}
	log.Printf("mikserve: tuning libraries for %d fleet devices ...", total)
	devices, err := fleet.BuildDevices(entries, tune.DefaultOptions(), base, devFaults)
	if err != nil {
		return err
	}
	f := fleet.NewDispatcher(devices, fleet.Config{
		ProbeInterval: time.Second,
		Obs:           o,
	})
	f.Start()
	srv.SetFleet(f)
	// The fleet shares one library per class; reuse the first device's for
	// the classic endpoints.
	srv.SetCompiler(core.NewCompilerFromLibrary(devices[0].Library(),
		core.WithCacheCapacity(cacheCap), core.WithObs(o)))
	log.Printf("mikserve: fleet ready (%d devices)", total)
	return nil
}

// loadOrTune produces the micro-kernel library: from libPath when given and
// readable (and targeting the requested hardware), otherwise by tuning,
// optionally persisting the result to savePath.
func loadOrTune(h hw.Hardware, libPath, savePath string, cacheCap int) *tune.Library {
	if libPath != "" {
		if lib, err := loadLibrary(h, libPath); err != nil {
			log.Printf("mikserve: -library %s: %v; tuning instead", libPath, err)
		} else {
			log.Printf("mikserve: loaded library from %s (%d kernels)", libPath, len(lib.Kernels))
			return lib
		}
	}
	log.Printf("mikserve: generating micro-kernel library for %s ...", h.Name)
	lib, err := tune.Generate(h, tune.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	if savePath != "" {
		if err := saveLibraryFile(lib, savePath); err != nil {
			log.Printf("mikserve: -save-library %s: %v", savePath, err)
		} else {
			log.Printf("mikserve: saved library to %s", savePath)
		}
	}
	return lib
}

// loadLibrary restores a checksummed library artifact. tune.LoadFile rejects
// truncated or bit-rotted files, so a corrupted artifact falls back to
// retuning in loadOrTune instead of serving from damaged models.
func loadLibrary(h hw.Hardware, path string) (*tune.Library, error) {
	lib, err := tune.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if lib.HW.Name != h.Name {
		return nil, fmt.Errorf("library targets %s, server runs %s", lib.HW.Name, h.Name)
	}
	return lib, nil
}

// saveLibraryFile persists the tuned library crash-safely (temp file, fsync,
// atomic rename) with an integrity trailer.
func saveLibraryFile(lib *tune.Library, path string) error {
	return tune.SaveFile(lib, path)
}
