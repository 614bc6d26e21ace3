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
// degradation to an always-legal fallback program, and — under -chaos-seed —
// stage-level recovery: a faulted stage is retried, migrated onto the
// surviving PEs and replanned for them, or the request is answered with a
// typed 503. Model graphs run with asynchronous
// plan-ahead; llama2-decode runs its steps as successive step graphs. POST
// /generate runs requests through the SLO-aware generation scheduler: paged
// KV cache with prefix reuse, chunked prefill interleaved with decode waves,
// and token-budget admission (429 + Retry-After when the in-flight token
// budget is exhausted).
//
// The scheduler's overload defenses are always on: an AIMD limiter shrinks
// the admitted token mass on step-SLO violations; a queued request that can
// no longer meet its deadline (-deadline-ms, or the request's own
// deadline_ms, else the TTFT SLO) is answered 504 before it runs; and under
// KV-arena pressure the least-important running sequence parks and later
// restores losslessly via prefix-cache recompute.
//
// -chaos-seed is the one fault knob: it runs the device under
// sim.ChaosSchedule (PE death, sticky faults, brownouts).
//
// The socket binds immediately; the micro-kernel library loads (-library,
// an artifact written by cmd/mikgen) or tunes in the background, and
// /healthz answers 503 until it is ready. The program cache lives in memory
// only: a restarted server re-plans each shape on its first request.
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
	"mikpoly/internal/hw"
	"mikpoly/internal/obs"
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
		chaosSeed   = flag.Uint64("chaos-seed", 0, "run under a seeded chaos schedule: PE death, sticky faults and brownouts on the device; 0 disables")
		library     = flag.String("library", "", "load the micro-kernel library written by mikgen -o from this file instead of tuning (falls back to tuning if unreadable)")
		withTrace   = flag.Bool("trace", true, "record execution spans, served at GET /trace")
		withPprof   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		kvPages     = flag.Int("kv-pages", 0, "KV-cache capacity in pages for /generate (0 = default)")
		prefillChk  = flag.Int("prefill-chunk", 0, "largest prefill chunk in tokens for /generate (0 = default)")
		stepSLO     = flag.Float64("slo-ms", 0, "decode-step latency SLO in milliseconds for /generate (0 = default)")
		ttftSLO     = flag.Float64("ttft-slo-ms", 0, "time-to-first-token SLO in milliseconds for /generate (0 = default)")
		schedBudget = flag.Int64("sched-tokens", 0, "in-flight token budget for /generate admission; over-budget requests get 429 + Retry-After (0 = default)")
		tenants     = flag.String("tenants", "", "comma-separated X-Tenant allowlist for /generate (empty = any tenant admitted)")
		deadlineMs  = flag.Float64("deadline-ms", 0, "default /generate deadline budget in milliseconds; a queued request whose wait alone exceeds it is shed with 504 (0 = the TTFT SLO bound; requests may override via deadline_ms)")
	)
	flag.Parse()

	h, err := hw.ByName(*hwName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mikserve: -hw: %v\n", err)
		os.Exit(2)
	}

	o := obs.New(obs.DefaultTraceCapacity)
	o.T().SetEnabled(*withTrace)

	cfg := serve.Config{
		MaxInFlight:         *inFlight,
		RequestTimeout:      *reqTimeout,
		PlanTimeout:         *planTimeout,
		SchedDecode:         true,
		KVPages:             *kvPages,
		PrefillChunk:        *prefillChk,
		StepSLOMs:           *stepSLO,
		TTFTSLOMs:           *ttftSLO,
		SchedInFlightTokens: *schedBudget,
		DeadlineMs:          *deadlineMs,
		Obs:                 o,
	}
	if *tenants != "" {
		for _, t := range strings.Split(*tenants, ",") {
			if t = strings.TrimSpace(t); t != "" {
				cfg.Tenants = append(cfg.Tenants, t)
			}
		}
	}
	if *chaosSeed != 0 {
		f := sim.ChaosSchedule(*chaosSeed, h)
		cfg.Faults = &f
		log.Printf("mikserve: chaos schedule enabled (seed=%d): PE death %v, sticky %v, brownout %v, task fault rate %g",
			*chaosSeed, f.PEDeathCycle, f.StickyFaults, f.Brownout != nil, f.TaskFaultRate)
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
		lib := loadOrTune(h, *library)
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

	log.Printf("mikserve: serving on http://%s (plan, execute, model, generate, healthz, stats, metrics, trace)", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// HTTP connections are drained; now stop the background machinery (the
	// generation scheduler) so the process exits with no work in flight.
	srv.Close()
	log.Print("mikserve: drained and stopped")
}

// loadOrTune produces the micro-kernel library: from libPath when given and
// readable (and targeting the requested hardware), otherwise by tuning.
func loadOrTune(h hw.Hardware, libPath string) *tune.Library {
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
