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
// runs" guarantee. /execute and /model run on the graph runtime, whose
// stage-level recovery ladder (retry in place, migrate to the degraded view,
// replan on it) is the one recovery path: a stage that comes back faulted
// under injected faults (sim.Faults) is healed there, or the request is
// answered with a typed 503 that names the stage.
package serve

import (
	"net/http"
	"sync/atomic"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/obs"
	"mikpoly/internal/sched"
	"mikpoly/internal/sim"
)

// Config holds what a deployment sets. The zero value of any field selects
// the DefaultConfig value, except PlanTimeout < 0, which means "already
// expired" and forces every plan down the fallback path (a chaos knob).
// Request bounds and breaker tuning are constants (limits, breakerThreshold);
// the scheduler's overload defenses are always on.
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

	// Faults, when non-nil, injects deterministic hardware degradation
	// into every simulated execution; each rung of the recovery ladder
	// re-runs a faulted stage under a distinct salt so transient faults
	// can clear.
	Faults *sim.Faults

	// PlanAhead is the graph runtime's plan-ahead depth for /model
	// requests (0 = default, negative = sequential inline planning).
	PlanAhead int

	// Deprecated: ignored. /model runs llama2-decode step graphs one
	// request at a time; concurrent decode batching lives in the generation
	// scheduler (SchedDecode).
	DecodeBatch bool

	// SchedDecode enables the SLO-aware multi-tenant generation scheduler
	// over a paged KV cache: POST /generate requests are admitted against
	// a token budget (429 + Retry-After when exhausted), identical prompt
	// prefixes share KV pages, and prefill runs in chunks sized to the
	// decode waves' slack under the step SLO. Its three overload defenses
	// are always on: an AIMD limiter shrinks the admitted token mass when
	// decode waves violate the step SLO, queued requests whose wait alone
	// exceeds their deadline are answered 504 without consuming device
	// cycles, and KV-arena pressure parks the least-important running
	// sequences for a bitwise-identical prefix-recompute resume.
	SchedDecode bool

	// KVPages sizes the paged KV arena; PrefillChunk bounds one prefill
	// slice; StepSLOMs/TTFTSLOMs are the latency bounds the scheduler packs
	// against; SchedInFlightTokens is the token budget admission counts
	// (prompt + generation across branches, not requests). Zero fields take
	// the scheduler defaults.
	KVPages             int
	PrefillChunk        int
	StepSLOMs           float64
	TTFTSLOMs           float64
	SchedInFlightTokens int64

	// Tenants, when non-empty, is the accepted X-Tenant allowlist for
	// /generate; requests naming an unknown tenant are answered 403.
	// Empty admits any tenant name.
	Tenants []string

	// DeadlineMs is the default deadline budget (arrival → first token) for
	// /generate requests that do not carry their own deadline_ms; zero falls
	// back to the scheduler's TTFT SLO bound.
	DeadlineMs float64

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
		MaxInFlight:    64,
		RequestTimeout: 10 * time.Second,
		PlanTimeout:    2 * time.Second,
		PlanAhead:      2,
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
	if c.PlanAhead == 0 {
		c.PlanAhead = d.PlanAhead
	} else if c.PlanAhead < 0 {
		c.PlanAhead = 0
	}
	return c
}

// limits bounds what one request may ask for. New fills them from
// defaultLimits; only package tests shrink them.
type limits struct {
	bodyBytes  int64 // request body (http.MaxBytesReader)
	dim        int   // each of M, N, K and every model dimension
	planElems  int64 // M·N·K; larger shapes are rejected with 413
	simTasks   int   // /plan simulates programs of at most this many tasks
	execElems  int64 // each materialized /execute operand
	modelSteps int   // decode steps of one /model or /generate request
	modelOps   int   // operators of one built model graph
}

var defaultLimits = limits{
	bodyBytes:  1 << 16,
	dim:        1 << 20,
	planElems:  1 << 40,
	simTasks:   1 << 18,
	execElems:  1 << 22,
	modelSteps: 32,
	modelOps:   4096,
}

// Per-model circuit breaker tuning: breakerThreshold consecutive
// unrecoverable failures open a model's breaker, which admits a half-open
// probe after breakerCooldown.
const (
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

// Server serves compilation, execution, and whole-model requests over HTTP.
// The compiler may be bound after construction (SetCompiler): a daemon can
// accept probes while the micro-kernel library loads or tunes, answering
// 503 on work endpoints until ready.
type Server struct {
	compiler atomic.Pointer[core.Compiler]
	runtime  atomic.Pointer[graphrt.Runtime]
	sched    atomic.Pointer[sched.Loop]
	health   atomic.Pointer[health.Registry]
	cfg      Config
	lim      limits
	o        *obs.Obs
	sem      chan struct{}
	breakers *breakerSet
	started  time.Time
	genSeq   atomic.Uint64 // /generate request IDs

	// cumulative counters, exported by /stats
	nRequests      atomic.Int64 // admitted plan/execute/model requests
	nRejected      atomic.Int64 // 429s from admission control
	nDegraded      atomic.Int64 // responses served via the fallback program
	nPanics        atomic.Int64 // handler panics recovered
	nModels        atomic.Int64 // /model graphs executed
	nUnrecoverable atomic.Int64 // /model and /execute requests failed with a StageError
	nBreakerTrips  atomic.Int64 // circuit-breaker open transitions
	nBreakerDrops  atomic.Int64 // requests rejected by an open breaker
	nGenerated     atomic.Int64 // /generate requests completed
	nTokenRejected atomic.Int64 // /generate 429s from the token budget
}

// New wraps a compiler in a serving layer. Zero Config fields take
// defaults. c may be nil: the server starts not-ready (503 on work
// endpoints and /healthz) until SetCompiler binds one.
func New(c *core.Compiler, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		lim:      defaultLimits,
		o:        cfg.Obs,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		breakers: newBreakerSet(breakerThreshold, breakerCooldown),
		started:  time.Now(),
	}
	s.registerObs()
	if c != nil {
		s.SetCompiler(c)
	}
	return s
}

// SetCompiler binds (or replaces) the compiler and builds the graph
// runtime over it, flipping the server ready. A fresh health registry is
// attached to both (degraded-mode planning and stage-level recovery share
// one view of the device), sized to the compiler's hardware. Under
// SchedDecode it also builds the generation scheduler, with adaptive
// admission, deadline shedding and KV preemption on.
func (s *Server) SetCompiler(c *core.Compiler) {
	reg := health.NewRegistry(c.Hardware().NumPEs, health.Config{})
	s.health.Store(reg)
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
			HW:                c.Hardware(),
			KV:                kvcache.Config{NumPages: s.cfg.KVPages},
			PrefillChunk:      s.cfg.PrefillChunk,
			StepSLOMs:         s.cfg.StepSLOMs,
			TTFTSLOMs:         s.cfg.TTFTSLOMs,
			MaxInFlightTokens: s.cfg.SchedInFlightTokens,
			Adaptive:          true,
			ShedDeadlines:     true,
		}))
		if old := s.sched.Swap(loop); old != nil {
			old.Close()
		}
	}
	s.compiler.Store(c)
}

// comp returns the bound compiler, or nil while the server is not ready.
func (s *Server) comp() *core.Compiler { return s.compiler.Load() }

// Close releases background resources: the generation scheduler loop.
func (s *Server) Close() {
	if l := s.sched.Load(); l != nil {
		l.Close()
	}
}

// Handler returns the service's HTTP handler: panic recovery wraps
// everything; admission, timeout and body limits guard the work endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("POST /plan", s.guard(http.HandlerFunc(s.handlePlan)))
	mux.Handle("POST /execute", s.guard(http.HandlerFunc(s.handleExecute)))
	mux.Handle("POST /model", s.guard(http.HandlerFunc(s.handleModel)))
	mux.Handle("POST /generate", s.guard(http.HandlerFunc(s.handleGenerate)))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
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
