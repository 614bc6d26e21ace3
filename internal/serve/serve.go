// Package serve is MikPoly's production serving layer: the compilation
// service of the paper's deployment story (§3.5) hardened for heavy traffic.
// It fronts a core.Compiler with HTTP handlers (/plan, /execute), admission
// control (bounded in-flight requests with 429 + Retry-After on overload),
// per-request timeouts, request-size limits, panic-recovery middleware, and
// /healthz + /stats endpoints.
//
// Robustness semantics: planning runs under a deadline and degrades to the
// always-legal single-kernel program (poly.FallbackProgram) rather than
// failing a request — the serving analogue of the paper's "zero invalid
// runs" guarantee. When a simulated execution reports an injected fault
// (sim.Faults), the shape is invalidated and re-planned with exponential
// backoff plus deterministic jitter.
package serve

import (
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/fleet"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/obs"
	"mikpoly/internal/sched"
	"mikpoly/internal/sim"
)

// Config tunes the serving layer. The zero value of any field selects the
// DefaultConfig value, except PlanTimeout < 0, which means "already expired"
// and forces every plan down the fallback path (a test/chaos knob).
type Config struct {
	// MaxInFlight bounds concurrently admitted /plan and /execute
	// requests; excess requests receive 429 with a Retry-After header.
	// /healthz and /stats bypass admission so probes succeed under load.
	MaxInFlight int

	// RequestTimeout bounds one request end to end.
	RequestTimeout time.Duration

	// PlanTimeout bounds the online planning stage within a request;
	// exceeding it degrades to the single-kernel fallback program.
	PlanTimeout time.Duration

	// MaxBodyBytes bounds the request body (http.MaxBytesReader).
	MaxBodyBytes int64

	// MaxDim bounds each of M, N, K; MaxPlanElems bounds M·N·K. Shapes
	// beyond either limit are rejected with 413 before any planning.
	MaxDim       int
	MaxPlanElems int64

	// MaxSimTasks bounds the task count a /plan request will simulate;
	// larger programs are still planned and returned, with simulation
	// skipped (sim fields zero, "sim_skipped": true).
	MaxSimTasks int

	// MaxExecElems bounds each operand's element count (M·K, K·N, M·N)
	// for /execute, which materializes matrices and runs real arithmetic.
	MaxExecElems int64

	// MaxRetries is the number of re-plan + re-run attempts after a
	// simulated execution reports a fault. Negative disables retries.
	MaxRetries int

	// RetryBase and RetryMax shape the exponential backoff between
	// attempts: delay(n) ≈ RetryBase·2ⁿ with jitter, capped at RetryMax.
	RetryBase time.Duration
	RetryMax  time.Duration

	// Seed drives the backoff jitter stream (deterministic tests).
	Seed uint64

	// Faults, when non-nil, injects deterministic hardware degradation
	// into every simulated execution; each retry attempt re-runs with a
	// distinct salt so transient faults can clear.
	Faults *sim.Faults

	// PlanAhead is the graph runtime's plan-ahead depth for /model
	// requests (0 = default, negative = sequential inline planning).
	PlanAhead int

	// Deprecated: ignored. /model runs llama2-decode step graphs one
	// request at a time; concurrent decode batching lives in the generation
	// scheduler (SchedDecode).
	DecodeBatch bool

	// MaxModelSteps bounds the decode steps of one /model request.
	MaxModelSteps int

	// MaxModelOps bounds the operator count of a built model graph;
	// larger graphs are rejected with 413.
	MaxModelOps int

	// DisableSelfHeal turns off the health registry and stage-level
	// recovery: faults surface to the blind whole-graph retry loop, as in
	// the pre-self-healing serving layer. A test/benchmark knob — it
	// exists so the chaos harness can measure what the recovery ladder
	// buys over blind retries.
	DisableSelfHeal bool

	// BreakerThreshold is the consecutive unrecoverable-failure count per
	// model name that opens its circuit breaker; BreakerCooldown is how
	// long the breaker stays open before a half-open probe is admitted.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// SchedDecode enables the SLO-aware multi-tenant generation scheduler
	// over a paged KV cache: POST /generate requests are admitted against
	// a token budget (429 + Retry-After when exhausted), identical prompt
	// prefixes share KV pages, and prefill runs in chunks sized to the
	// decode waves' slack under the step SLO.
	SchedDecode bool

	// KVPages/KVPageTokens size the paged KV arena; PrefillChunk bounds
	// one prefill slice; StepSLOMs/TTFTSLOMs are the latency bounds the
	// scheduler packs against; SchedInFlightTokens is the token budget
	// admission counts (prompt + generation across branches, not
	// requests). Zero fields take the scheduler defaults.
	KVPages             int
	KVPageTokens        int
	PrefillChunk        int
	StepSLOMs           float64
	TTFTSLOMs           float64
	SchedInFlightTokens int64

	// Tenants, when non-empty, is the accepted X-Tenant allowlist for
	// /generate; requests naming an unknown tenant are answered 403.
	// Empty admits any tenant name.
	Tenants []string

	// AdaptiveAdmission replaces the scheduler's static token-budget gate
	// with an AIMD limiter that shrinks the admitted mass when decode waves
	// violate the step SLO and grows it while comfortably under.
	AdaptiveAdmission bool

	// ShedDeadlines drops queued /generate requests whose queue wait alone
	// already exceeds their deadline budget: they are answered 504
	// (deadline-exceeded) without ever consuming device cycles, counted
	// separately from admission 429s.
	ShedDeadlines bool

	// DeadlineMs is the default deadline budget (arrival → first token) for
	// /generate requests that do not carry their own deadline_ms; zero falls
	// back to the scheduler's TTFT SLO bound when ShedDeadlines is on.
	DeadlineMs float64

	// KVPreempt lets the scheduler preempt the least-important running
	// sequences when the paged KV arena runs dry, parking them for a
	// bitwise-identical prefix-recompute resume instead of failing them.
	KVPreempt bool

	// Brownout runs the overload ladder controller: ordered degradation
	// stages (tracing off → smaller prefill chunks → stretched hedges →
	// lowest-class shedding) driven by admission occupancy, scheduler
	// backlog, KV pressure, and breaker state, with hysteresis.
	Brownout bool

	// PlanSnapshotPath, when set, names the persistent plan-cache snapshot
	// artifact: SetCompiler warm-starts the program cache from it (an
	// incompatible snapshot is rejected and the replica plans online), and
	// POST /plancache/save and the periodic flusher write back to it.
	PlanSnapshotPath string
	// SnapshotInterval enables the background flusher: every interval the
	// server pre-plans the tracker's hot shapes and atomically rewrites
	// PlanSnapshotPath. Zero disables periodic flushes (manual saves via
	// POST /plancache/save still work).
	SnapshotInterval time.Duration

	// Obs optionally attaches the observability layer: the handler then
	// serves GET /metrics (Prometheus text) and GET /trace (span dump),
	// server/compiler/runtime counters are exported at scrape time, and
	// the same Obs is threaded into the graph runtime for tracing. nil
	// (the default) serves unobserved: both endpoints answer 404 and no
	// instrumentation runs.
	Obs *obs.Obs
}

// DefaultConfig returns production-leaning defaults.
func DefaultConfig() Config {
	return Config{
		MaxInFlight:      64,
		RequestTimeout:   10 * time.Second,
		PlanTimeout:      2 * time.Second,
		MaxBodyBytes:     1 << 16,
		MaxDim:           1 << 20,
		MaxPlanElems:     1 << 40,
		MaxSimTasks:      1 << 18,
		MaxExecElems:     1 << 22,
		MaxRetries:       3,
		RetryBase:        10 * time.Millisecond,
		RetryMax:         500 * time.Millisecond,
		PlanAhead:        2,
		MaxModelSteps:    32,
		MaxModelOps:      4096,
		BreakerThreshold: 5,
		BreakerCooldown:  5 * time.Second,
	}
}

// withDefaults fills zero fields from DefaultConfig. PlanTimeout < 0 is
// preserved (forced-fallback knob).
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = d.MaxInFlight
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.PlanTimeout == 0 {
		c.PlanTimeout = d.PlanTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.MaxDim <= 0 {
		c.MaxDim = d.MaxDim
	}
	if c.MaxPlanElems <= 0 {
		c.MaxPlanElems = d.MaxPlanElems
	}
	if c.MaxSimTasks <= 0 {
		c.MaxSimTasks = d.MaxSimTasks
	}
	if c.MaxExecElems <= 0 {
		c.MaxExecElems = d.MaxExecElems
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = d.MaxRetries
	} else if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBase <= 0 {
		c.RetryBase = d.RetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = d.RetryMax
	}
	if c.PlanAhead == 0 {
		c.PlanAhead = d.PlanAhead
	} else if c.PlanAhead < 0 {
		c.PlanAhead = 0
	}
	if c.MaxModelSteps <= 0 {
		c.MaxModelSteps = d.MaxModelSteps
	}
	if c.MaxModelOps <= 0 {
		c.MaxModelOps = d.MaxModelOps
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = d.BreakerThreshold
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = d.BreakerCooldown
	}
	return c
}

// Server serves compilation, execution, and whole-model requests over HTTP.
// The compiler may be bound after construction (SetCompiler): a daemon can
// accept probes while the micro-kernel library loads or tunes, answering
// 503 on work endpoints until ready.
type Server struct {
	compiler atomic.Pointer[core.Compiler]
	runtime  atomic.Pointer[graphrt.Runtime]
	sched    atomic.Pointer[sched.Loop]
	health   atomic.Pointer[health.Registry]
	fleet    atomic.Pointer[fleet.Dispatcher]
	cfg      Config
	o        *obs.Obs
	sem      chan struct{}
	bo       *backoff
	breakers *breakerSet
	started  time.Time
	genSeq   atomic.Uint64 // /generate request IDs

	snapQuit chan struct{} // stops the snapshot flusher
	snapOnce sync.Once
	snapWG   sync.WaitGroup
	snapMu   sync.Mutex // serializes snapshot file writes

	// Brownout ladder state (overload.go).
	overStage   atomic.Int32  // current stage, 0 = normal
	overQuit    chan struct{} // stops the ladder controller
	overOnce    sync.Once
	overWG      sync.WaitGroup
	tracerWasOn bool // whether stage 0 should re-enable tracing

	// cumulative counters, exported by /stats
	nRequests      atomic.Int64 // admitted plan/execute/model requests
	nRejected      atomic.Int64 // 429s from admission control
	nDegraded      atomic.Int64 // responses served via the fallback program
	nRetries       atomic.Int64 // fault-triggered re-plan attempts
	nFaults        atomic.Int64 // simulated runs that reported >= 1 faulted task
	nPanics        atomic.Int64 // handler panics recovered
	nModels        atomic.Int64 // /model graphs executed
	nUnrecoverable atomic.Int64 // /model requests failed with a StageError
	nBreakerTrips  atomic.Int64 // circuit-breaker open transitions
	nBreakerDrops  atomic.Int64 // requests rejected by an open breaker
	nGenerated     atomic.Int64 // /generate requests completed
	nTokenRejected atomic.Int64 // /generate 429s from the token budget
	nDeadlineSheds atomic.Int64 // /generate 504s (deadline provably missed)
	nBrownoutSheds atomic.Int64 // /generate 503s from the brownout ladder

	// plan-cache tier counters
	nSnapshotSaves   atomic.Int64 // snapshot files written
	nSnapshotLoads   atomic.Int64 // snapshots successfully imported
	nSnapshotRejects atomic.Int64 // snapshot loads/imports rejected
}

// New wraps a compiler in a serving layer. Zero Config fields take
// defaults. c may be nil: the server starts not-ready (503 on work
// endpoints and /healthz) until SetCompiler binds one.
func New(c *core.Compiler, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		o:        cfg.Obs,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		bo:       newBackoff(cfg.RetryBase, cfg.RetryMax, cfg.Seed),
		breakers: newBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		started:  time.Now(),
		snapQuit: make(chan struct{}),
		overQuit: make(chan struct{}),
	}
	s.registerObs()
	if c != nil {
		s.SetCompiler(c)
	}
	if cfg.PlanSnapshotPath != "" && cfg.SnapshotInterval > 0 {
		s.startSnapshotFlusher()
	}
	if cfg.Brownout {
		s.startBrownout()
	}
	return s
}

// SetCompiler binds (or replaces) the compiler and builds the graph
// runtime over it, flipping the server ready. A fresh health registry is
// attached to both (degraded-mode planning and stage-level recovery share
// one view of the device), sized to the compiler's hardware.
func (s *Server) SetCompiler(c *core.Compiler) {
	// Warm-start the program cache from the configured snapshot before the
	// compiler goes live, so the replica's first hot shapes hit the cache.
	// A missing or incompatible snapshot just means planning online.
	if s.cfg.PlanSnapshotPath != "" {
		s.loadSnapshotInto(c)
	}
	var reg *health.Registry
	if !s.cfg.DisableSelfHeal {
		reg = health.NewRegistry(c.Hardware().NumPEs, health.Config{})
		s.health.Store(reg)
	}
	rt := graphrt.New(c, graphrt.Config{
		PlanAhead:   s.cfg.PlanAhead,
		PlanTimeout: s.cfg.PlanTimeout,
		Obs:         s.o,
		Health:      reg,
	})
	rt.SetSimulator(func(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result {
		return s.simulateTasks(h, v, tasks, salt)
	})
	s.runtime.Store(rt)
	if s.cfg.SchedDecode {
		loop := sched.NewLoop(sched.New(schedExecutor{rt}, sched.Config{
			HW: c.Hardware(),
			KV: kvcache.Config{
				NumPages:      s.cfg.KVPages,
				TokensPerPage: s.cfg.KVPageTokens,
			},
			PrefillChunk:      s.cfg.PrefillChunk,
			StepSLOMs:         s.cfg.StepSLOMs,
			TTFTSLOMs:         s.cfg.TTFTSLOMs,
			MaxInFlightTokens: s.cfg.SchedInFlightTokens,
			Adaptive:          s.cfg.AdaptiveAdmission,
			ShedDeadlines:     s.cfg.ShedDeadlines,
			PreemptKV:         s.cfg.KVPreempt,
		}))
		if old := s.sched.Swap(loop); old != nil {
			old.Close()
		}
	}
	s.compiler.Store(c)
}

// comp returns the bound compiler, or nil while the server is not ready.
func (s *Server) comp() *core.Compiler { return s.compiler.Load() }

// Close releases background resources: the snapshot flusher, the brownout
// controller, the generation scheduler loop and, when a fleet is bound, its
// device workers and prober.
func (s *Server) Close() {
	s.snapOnce.Do(func() { close(s.snapQuit) })
	s.snapWG.Wait()
	s.overOnce.Do(func() { close(s.overQuit) })
	s.overWG.Wait()
	if l := s.sched.Load(); l != nil {
		l.Close()
	}
	if f := s.fleet.Load(); f != nil {
		f.Close()
	}
}

// Handler returns the service's HTTP handler: panic recovery wraps
// everything; admission, timeout and body limits guard the work endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /plan", s.guard(http.HandlerFunc(s.handlePlan)))
	mux.Handle("POST /execute", s.guard(http.HandlerFunc(s.handleExecute)))
	mux.Handle("POST /model", s.guard(http.HandlerFunc(s.handleModel)))
	mux.Handle("POST /gemm", s.guard(http.HandlerFunc(s.handleGemm)))
	mux.Handle("POST /generate", s.guard(http.HandlerFunc(s.handleGenerate)))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	// Fleet admin endpoints bypass admission: an operator must be able to
	// inspect and drain replicas while the work endpoints shed load.
	mux.HandleFunc("GET /fleet", s.handleFleetSummary)
	mux.HandleFunc("POST /fleet/drain", s.handleFleetDrain)
	// Plan-cache admin endpoints likewise bypass admission: snapshot flushes
	// and warm-loads are exactly the operations an operator runs while a
	// replica is overloaded or about to be replaced.
	mux.HandleFunc("GET /plancache", s.handlePlanCache)
	mux.HandleFunc("POST /plancache/save", s.handlePlanCacheSave)
	mux.HandleFunc("POST /plancache/load", s.handlePlanCacheLoad)
	// Observability endpoints bypass admission like the probes: a scrape
	// must succeed while the work endpoints shed load.
	if m := s.o.M(); m != nil {
		mux.Handle("GET /metrics", m.Handler())
	}
	if t := s.o.T(); t != nil {
		mux.Handle("GET /trace", t.Handler())
	}
	return s.recoverMW(mux)
}

// guard stacks the per-request protections for work endpoints.
func (s *Server) guard(next http.Handler) http.Handler {
	return s.admitMW(s.timeoutMW(s.limitBodyMW(next)))
}
