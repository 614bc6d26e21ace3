package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/engine"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/sched"
	"mikpoly/internal/sim"
	"mikpoly/internal/tensor"
)

// planRequest is the wire format of a compilation request.
type planRequest struct {
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`
}

// regionInfo describes one region of a returned program.
type regionInfo struct {
	RowOffset int    `json:"row_offset"`
	Rows      int    `json:"rows"`
	ColOffset int    `json:"col_offset"`
	Cols      int    `json:"cols"`
	KOffset   int    `json:"k_offset,omitempty"`
	KDepth    int    `json:"k_depth"`
	Kernel    string `json:"kernel"`
}

// planResponse is the wire format of a compilation result.
type planResponse struct {
	Shape      string       `json:"shape"`
	Pattern    string       `json:"pattern"`
	Regions    []regionInfo `json:"regions"`
	Tasks      int          `json:"tasks"`
	Degraded   bool         `json:"degraded"`
	SimSkipped bool         `json:"sim_skipped,omitempty"`
	SimCycles  float64      `json:"sim_cycles,omitempty"`
	SimTFLOPS  float64      `json:"sim_tflops,omitempty"`
	Efficiency float64      `json:"pe_efficiency,omitempty"`
}

// execRequest asks the service to numerically execute C = A × B for
// deterministic pseudo-random operands, proving the planned program correct
// end to end.
type execRequest struct {
	M     int    `json:"m"`
	N     int    `json:"n"`
	K     int    `json:"k"`
	SeedA uint64 `json:"seed_a,omitempty"`
	SeedB uint64 `json:"seed_b,omitempty"`
}

// execResponse reports the numeric digest and the (possibly fault-injected)
// simulated execution, with what the stage ladder healed on the way.
type execResponse struct {
	Shape           string    `json:"shape"`
	Degraded        bool      `json:"degraded"`
	FaultedTasks    int       `json:"faulted_tasks"`
	RecoveredStages int       `json:"recovered_stages,omitempty"`
	RecoveredFaults int       `json:"recovered_faults,omitempty"`
	SimCycles       float64   `json:"sim_cycles"`
	Checksum        float64   `json:"checksum"`
	Sample          []float32 `json:"sample"`
}

// errorResponse is the wire format of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// decodeBody decodes a JSON request, classifying failures: oversized bodies
// are 413, malformed JSON 400.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body too large")
		} else {
			httpError(w, http.StatusBadRequest, "bad request: "+err.Error())
		}
		return false
	}
	return true
}

// checkShape validates a shape against the service limits. It returns a
// non-nil error plus the HTTP status to answer with.
func (s *Server) checkShape(shape tensor.GemmShape) (int, error) {
	if !shape.Valid() {
		return http.StatusBadRequest, fmt.Errorf("invalid shape %v: dimensions must be positive", shape)
	}
	if shape.M > s.lim.dim || shape.N > s.lim.dim || shape.K > s.lim.dim {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("shape %v exceeds per-dimension limit %d", shape, s.lim.dim)
	}
	if vol := int64(shape.M) * int64(shape.N) * int64(shape.K); vol > s.lim.planElems {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("shape %v volume %d exceeds limit %d", shape, vol, s.lim.planElems)
	}
	return 0, nil
}

// checkExecOperands bounds the materialized operand sizes /execute runs real
// arithmetic on.
func (s *Server) checkExecOperands(shape tensor.GemmShape) (int, error) {
	for _, operand := range [][2]int{{shape.M, shape.K}, {shape.K, shape.N}, {shape.M, shape.N}} {
		if elems := int64(operand[0]) * int64(operand[1]); elems > s.lim.execElems {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("operand %dx%d exceeds execute limit %d elements", operand[0], operand[1], s.lim.execElems)
		}
	}
	return 0, nil
}

// planShape runs the deadline-bounded, fallback-protected planning stage.
func (s *Server) planShape(ctx context.Context, c *core.Compiler, shape tensor.GemmShape) (*poly.Program, bool, error) {
	pctx := ctx
	var cancel context.CancelFunc = func() {}
	if s.cfg.PlanTimeout != 0 {
		pctx, cancel = context.WithTimeout(ctx, s.cfg.PlanTimeout)
	}
	defer cancel()
	prog, degraded, err := c.PlanOrFallback(pctx, shape)
	if degraded {
		s.nDegraded.Add(1)
	}
	return prog, degraded, err
}

// ready returns the bound compiler, answering 503 (and returning nil) while
// the library is still loading or tuning.
func (s *Server) ready(w http.ResponseWriter) *core.Compiler {
	c := s.comp()
	if c == nil {
		httpError(w, http.StatusServiceUnavailable, "compiler not ready")
		return nil
	}
	return c
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	c := s.ready(w)
	if c == nil {
		return
	}
	var req planRequest
	if !decodeBody(w, r, &req) {
		return
	}
	shape := tensor.GemmShape{M: req.M, N: req.N, K: req.K}
	if status, err := s.checkShape(shape); err != nil {
		httpError(w, status, err.Error())
		return
	}
	prog, degraded, err := s.planShape(r.Context(), c, shape)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}

	h := c.Hardware()
	resp := planResponse{
		Shape:    shape.String(),
		Pattern:  prog.Pattern.String(),
		Tasks:    prog.NumTasks(),
		Degraded: degraded,
	}
	for _, reg := range prog.Regions {
		resp.Regions = append(resp.Regions, regionInfo{
			RowOffset: reg.M0, Rows: reg.M,
			ColOffset: reg.N0, Cols: reg.N,
			KOffset: reg.KOff, KDepth: reg.K,
			Kernel: reg.Kern.String(),
		})
	}
	if resp.Tasks > s.lim.simTasks {
		resp.SimSkipped = true
	} else {
		res := s.simulate(c, prog)
		resp.SimCycles = res.Cycles
		resp.SimTFLOPS = shape.FLOPs() / h.CyclesToSeconds(res.Cycles) / 1e12
		resp.Efficiency = res.Efficiency()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	c := s.ready(w)
	if c == nil {
		return
	}
	var req execRequest
	if !decodeBody(w, r, &req) {
		return
	}
	shape := tensor.GemmShape{M: req.M, N: req.N, K: req.K}
	if status, err := s.checkShape(shape); err != nil {
		httpError(w, status, err.Error())
		return
	}
	if status, err := s.checkExecOperands(shape); err != nil {
		httpError(w, status, err.Error())
		return
	}
	if req.SeedA == 0 {
		req.SeedA = 1
	}
	if req.SeedB == 0 {
		req.SeedB = 2
	}

	// The simulated run is a one-op graph on the graph runtime: the stage
	// ladder, quarantine and the typed 503 are /model's.
	g := nn.Graph{
		Name: "execute" + shape.String(),
		Ops:  []nn.Op{{Name: "gemm", Kind: nn.OpGemm, Gemm: shape, Count: 1}},
	}
	rep, status, err := s.execGraph(r.Context(), s.runtime.Load(), g)
	if err != nil {
		httpError(w, status, err.Error())
		return
	}
	if rep.Degraded > 0 {
		s.nDegraded.Add(1)
	}
	// The numerics run the program the plan cache holds for the shape, or
	// the fallback where it holds none (fallbacks are not cached). Every
	// program partitions the same iteration space with sequential-K
	// accumulation, so the result does not depend on which one runs.
	prog := c.Lookup(shape)
	if prog == nil {
		if prog, err = poly.FallbackProgram(c.Library(), shape); err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}

	// Numeric execution on deterministic operands: the returned digest lets
	// the client verify the program against its own reference GEMM.
	a := tensor.RandomMatrix(shape.M, shape.K, req.SeedA)
	b := tensor.RandomMatrix(shape.K, shape.N, req.SeedB)
	out, err := engine.Execute(prog, a, b)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "execution failed: "+err.Error())
		return
	}
	var sum float64
	for _, v := range out.Data {
		sum += float64(v)
	}
	sample := []float32{
		out.At(0, 0),
		out.At(0, out.Cols-1),
		out.At(out.Rows-1, 0),
		out.At(out.Rows-1, out.Cols-1),
	}
	writeJSON(w, http.StatusOK, execResponse{
		Shape:           shape.String(),
		Degraded:        rep.Degraded > 0,
		FaultedTasks:    rep.FaultedTasks,
		RecoveredStages: rep.RecoveredStages,
		RecoveredFaults: rep.RecoveredFaults,
		SimCycles:       rep.Cycles,
		Checksum:        sum,
		Sample:          sample,
	})
}

// simulate runs /plan's program on the (possibly degraded) simulated device:
// the health registry's current view shrinks the hardware before the tasks
// are lowered, and the outcome feeds back into the registry. c is the bound
// compiler, so the registry SetCompiler built with it is set.
func (s *Server) simulate(c *core.Compiler, prog *poly.Program) sim.Result {
	reg := s.health.Load()
	v := reg.View()
	h := v.Apply(c.Hardware())
	res := s.simulateTasks(h, v, prog.Tasks(h), 0)
	reg.ObserveResult(v, res)
	return res
}

// simulateTasks runs a raw task batch under the service's fault config; it
// is also the graph runtime's simulator seam, so graph executions see the
// same injected degradation as /plan. salt is the recovery ladder's: each
// rung draws a fresh transient-fault stream.
func (s *Server) simulateTasks(h hw.Hardware, v health.View, tasks []sim.Task, salt uint64) sim.Result {
	if s.cfg.Faults == nil {
		return sim.Run(h, tasks)
	}
	// The runtime hands us the effective (possibly shrunken) hardware and
	// the health view it reflects: renumber the fault schedule's per-PE
	// entries onto the survivor indices so a quarantined PE's configured
	// faults die with it instead of landing on an innocent survivor.
	f := v.RemapFaults(*s.cfg.Faults)
	f.Salt += salt
	res, err := sim.RunWithFaults(h, tasks, f)
	if err != nil {
		// An unusable fault config degrades to the healthy simulation
		// rather than failing requests.
		return sim.Run(h, tasks)
	}
	return res
}

// healthResponse is the /healthz wire format. A degrading device stays
// HTTP 200 — the process is alive and serving, just on fewer PEs — with
// Status "degraded" and the view's forensics attached, so orchestrators
// don't kill a pod that is healing itself.
type healthResponse struct {
	Status string `json:"status"`
	Uptime string `json:"uptime"`

	Quarantined     []int             `json:"quarantined_pes,omitempty"`
	BandwidthFactor float64           `json:"bandwidth_factor,omitempty"`
	Fingerprint     string            `json:"health_fingerprint,omitempty"`
	Breakers        map[string]string `json:"breakers,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	c := s.comp()
	if c == nil || len(c.Library().Kernels) == 0 {
		httpError(w, http.StatusServiceUnavailable, "compiler not ready")
		return
	}
	resp := healthResponse{
		Status:   "ok",
		Uptime:   time.Since(s.started).Round(time.Millisecond).String(),
		Breakers: s.breakers.snapshot(),
	}
	v := s.health.Load().View()
	if fp := v.Fingerprint(); fp != "" {
		resp.Status = "degraded"
		resp.Quarantined = v.Quarantined
		resp.BandwidthFactor = v.BandwidthFactor
		resp.Fingerprint = fp
	}
	if len(resp.Breakers) > 0 {
		resp.Status = "degraded"
	}
	writeJSON(w, http.StatusOK, resp)
}

// graphStats is the /stats view of the graph runtime's cumulative counters.
type graphStats struct {
	Graphs       int64   `json:"graphs"`
	Stages       int64   `json:"stages"`
	Plans        int64   `json:"plans"`
	Stalls       int64   `json:"stalls"`
	PlanMs       float64 `json:"plan_ms"`
	StallMs      float64 `json:"stall_ms"`
	HiddenMs     float64 `json:"hidden_ms"`
	Degraded     int64   `json:"degraded"`
	FaultedTasks int64   `json:"faulted_tasks"`
	Cycles       float64 `json:"cycles"`
	SpillBytes   float64 `json:"spill_bytes"`

	// Compiled is the compiled-execution table: replays, interpretations
	// it could not spare, evictions and entries.
	Compiled graphrt.CompiledStats `json:"compiled"`

	// Stage-recovery ladder outcomes.
	RetriedStages       int64 `json:"retried_stages,omitempty"`
	MigratedStages      int64 `json:"migrated_stages,omitempty"`
	ReplannedStages     int64 `json:"replanned_stages,omitempty"`
	UnrecoverableStages int64 `json:"unrecoverable_stages,omitempty"`
}

// healthStats is the /stats view of the health registry and the compiler's
// degraded-mode planning counters.
type healthStats struct {
	Quarantined  []int   `json:"quarantined_pes,omitempty"`
	BWFactor     float64 `json:"bandwidth_factor"`
	Fingerprint  string  `json:"fingerprint,omitempty"`
	Generation   uint64  `json:"generation"`
	Observations uint64  `json:"observations"`
	Transients   uint64  `json:"transients"`
	Persistents  uint64  `json:"persistents"`
	Quarantines  uint64  `json:"quarantines"`
	BWAdoptions  uint64  `json:"bw_adoptions"`
	Replans      int64   `json:"replans"`
	DegradedPlan int64   `json:"degraded_plans"`
	BreakerTrips int64   `json:"breaker_trips"`
	BreakerDrops int64   `json:"breaker_drops"`
}

// schedStatsView is the /stats view of the generation scheduler: the
// cumulative wave accounting plus the live step-latency quantiles.
type schedStatsView struct {
	sched.Stats
	Generated     int64   `json:"generated"`
	TokenRejected int64   `json:"token_rejected"` // 429s from the token budget
	P50StepMs     float64 `json:"p50_step_ms"`
	P99StepMs     float64 `json:"p99_step_ms"`
}

// overloadStats is the /stats view of the scheduler's overload defenses:
// deadline sheds, KV-pressure preemption traffic, and the adaptive admission
// limiter's live ceiling.
type overloadStats struct {
	DeadlineSheds       int64 `json:"deadline_sheds"`
	Preemptions         int64 `json:"preemptions"`
	Restores            int64 `json:"restores"`
	Parked              int   `json:"parked"`
	AdaptiveLimitTokens int64 `json:"adaptive_limit_tokens"`
}

// statsResponse is the /stats wire format.
type statsResponse struct {
	Uptime          string          `json:"uptime"`
	Ready           bool            `json:"ready"`
	Requests        int64           `json:"requests"`
	Rejected        int64           `json:"rejected"`
	Degraded        int64           `json:"degraded"`
	PanicsRecovered int64           `json:"panics_recovered"`
	InFlight        int             `json:"in_flight"`
	MaxInFlight     int             `json:"max_in_flight"`
	Plans           int             `json:"plans"`
	PlanCandidates  int             `json:"plan_candidates"`
	Cache           core.CacheStats `json:"cache"`
	Fallbacks       int64           `json:"fallbacks"`
	PlannerPanics   int64           `json:"planner_panics"`
	Models          int64           `json:"models"`
	Unrecoverable   int64           `json:"unrecoverable"`
	Graph           *graphStats     `json:"graph,omitempty"`
	Health          *healthStats    `json:"health,omitempty"`
	Sched           *schedStatsView `json:"sched,omitempty"`
	KV              *kvcache.Stats  `json:"kv,omitempty"`
	Overload        *overloadStats  `json:"overload,omitempty"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := statsResponse{
		Uptime:          time.Since(s.started).Round(time.Millisecond).String(),
		Requests:        s.nRequests.Load(),
		Rejected:        s.nRejected.Load(),
		Degraded:        s.nDegraded.Load(),
		PanicsRecovered: s.nPanics.Load(),
		InFlight:        len(s.sem),
		MaxInFlight:     cap(s.sem),
		Models:          s.nModels.Load(),
		Unrecoverable:   s.nUnrecoverable.Load(),
	}
	if c := s.comp(); c != nil {
		resp.Ready = true
		plans, pstats := c.PlanStats()
		health := c.Health()
		resp.Plans = plans
		resp.PlanCandidates = pstats.Candidates
		resp.Cache = c.CacheStats()
		resp.Fallbacks = health.Fallbacks
		resp.PlannerPanics = health.PlannerPanics
		reg := s.health.Load()
		hs, v := reg.Stats(), reg.View()
		resp.Health = &healthStats{
			Quarantined:  v.Quarantined,
			BWFactor:     v.BandwidthFactor,
			Fingerprint:  v.Fingerprint(),
			Generation:   hs.Generation,
			Observations: hs.Observations,
			Transients:   hs.Transients,
			Persistents:  hs.Persistents,
			Quarantines:  hs.Quarantines,
			BWAdoptions:  hs.BWAdoptions,
			Replans:      health.Replans,
			DegradedPlan: health.DegradedPlans,
			BreakerTrips: s.nBreakerTrips.Load(),
			BreakerDrops: s.nBreakerDrops.Load(),
		}
	}
	if rt := s.runtime.Load(); rt != nil {
		gs := rt.Stats()
		resp.Graph = &graphStats{
			Graphs:              gs.Graphs,
			Stages:              gs.Stages,
			Plans:               gs.Plans,
			Stalls:              gs.Stalls,
			PlanMs:              float64(gs.PlanWall) / float64(time.Millisecond),
			StallMs:             float64(gs.StallWall) / float64(time.Millisecond),
			HiddenMs:            float64(gs.HiddenWall) / float64(time.Millisecond),
			Degraded:            gs.Degraded,
			FaultedTasks:        gs.FaultedTasks,
			Cycles:              gs.Cycles,
			SpillBytes:          gs.SpillBytes,
			Compiled:            gs.Compiled,
			RetriedStages:       gs.RetriedStages,
			MigratedStages:      gs.MigratedStages,
			ReplannedStages:     gs.ReplannedStages,
			UnrecoverableStages: gs.UnrecoverableStages,
		}
	}
	if l := s.sched.Load(); l != nil {
		sc := l.Scheduler()
		ss := sc.Stats()
		resp.Sched = &schedStatsView{
			Stats:         ss,
			Generated:     s.nGenerated.Load(),
			TokenRejected: s.nTokenRejected.Load(),
			P50StepMs:     sc.StepQuantileMs(0.50),
			P99StepMs:     sc.StepQuantileMs(0.99),
		}
		kv := sc.KV().Stats()
		resp.KV = &kv
		// The scheduler's deadline-shed count is authoritative: it includes
		// sheds whose HTTP 504 was never delivered (client already gone).
		resp.Overload = &overloadStats{
			DeadlineSheds:       ss.DeadlineSheds,
			Preemptions:         ss.Preemptions,
			Restores:            ss.Restores,
			Parked:              ss.Parked,
			AdaptiveLimitTokens: ss.AdaptiveLimitTokens,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}
