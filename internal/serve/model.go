package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/nn"
)

// modelRequest asks the service to execute a whole model graph end to end
// through the graph runtime. Zero dimensions take the registry defaults;
// Steps (llama2-decode only) defaults to 1.
type modelRequest struct {
	Model      string `json:"model"`
	Seq        int    `json:"seq,omitempty"`
	Batch      int    `json:"batch,omitempty"`
	Resolution int    `json:"resolution,omitempty"`
	KVLen      int    `json:"kv_len,omitempty"`
	Steps      int    `json:"steps,omitempty"`
}

// modelResponse reports one model execution — for llama2-decode, the sum
// over its step graphs: device time, plan-ahead accounting and
// memory-planner results.
type modelResponse struct {
	Graph  string `json:"graph"`
	Ops    int    `json:"ops"`
	Stages int    `json:"stages,omitempty"`

	SimCycles float64 `json:"sim_cycles"`

	Plans      int     `json:"plans,omitempty"`
	Stalls     int     `json:"stalls"`
	PlanMs     float64 `json:"plan_ms"`
	StallMs    float64 `json:"stall_ms"`
	HiddenMs   float64 `json:"hidden_ms"`
	HiddenFrac float64 `json:"hidden_frac"`

	Degraded     int `json:"degraded"`
	Attempts     int `json:"attempts"`
	FaultedTasks int `json:"faulted_tasks"`

	// Stage-recovery accounting: stages healed by the runtime's escalation
	// ladder and the faulted tasks it absorbed doing so.
	RecoveredStages int `json:"recovered_stages,omitempty"`
	RecoveredFaults int `json:"recovered_faults,omitempty"`

	// Tokens is the number of decode steps run (llama2-decode only).
	Tokens int `json:"tokens,omitempty"`

	PeakMemBytes    int64   `json:"peak_mem_bytes,omitempty"`
	WorkingSetBytes int64   `json:"working_set_bytes,omitempty"`
	SpilledBuffers  int     `json:"spilled_buffers,omitempty"`
	SpillBytes      float64 `json:"spill_bytes,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	c := s.ready(w)
	if c == nil {
		return
	}
	rt := s.runtime.Load()
	if rt == nil {
		httpError(w, http.StatusServiceUnavailable, "graph runtime not ready")
		return
	}
	var req modelRequest
	if !decodeBody(w, r, &req) {
		return
	}
	for _, dim := range []struct {
		name string
		v    int
	}{{"seq", req.Seq}, {"batch", req.Batch}, {"resolution", req.Resolution}, {"kv_len", req.KVLen}} {
		if dim.v < 0 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("%s must be non-negative", dim.name))
			return
		}
		if dim.v > s.lim.dim {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("%s %d exceeds per-dimension limit %d", dim.name, dim.v, s.lim.dim))
			return
		}
	}
	if req.Steps < 0 || req.Steps > s.lim.modelSteps {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("steps %d outside [0, %d]", req.Steps, s.lim.modelSteps))
		return
	}
	if req.Steps == 0 {
		req.Steps = 1
	}
	// Per-model circuit breaker: a model whose graphs keep failing
	// unrecoverably is shed early, so a persistently broken shape class
	// cannot monopolize the device while other models still serve.
	if !s.breakers.allow(req.Model) {
		s.nBreakerDrops.Add(1)
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int(breakerCooldown/time.Second)+1))
		httpError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("circuit breaker open for model %q", req.Model))
		return
	}

	// llama2-decode decodes Steps tokens as Steps step graphs, each attending
	// over one more cached token than the last; every other model runs one
	// graph. Concurrent decode batching is the generation scheduler's job
	// (/generate), not this endpoint's.
	dims := nn.ModelDims{Seq: req.Seq, Batch: req.Batch, Resolution: req.Resolution, KVLen: req.KVLen}
	steps, tokens := 1, 0
	if req.Model == "llama2-decode" {
		if dims.KVLen == 0 {
			dims.KVLen = nn.DefaultKVLen
		}
		steps, tokens = req.Steps, req.Steps
	}
	var sum graphrt.Report
	attempts := 0
	for i := 0; i < steps; i++ {
		g, err := nn.BuildModel(req.Model, dims)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if len(g.Ops) > s.lim.modelOps {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("graph %s has %d ops, exceeds limit %d", g.Name, len(g.Ops), s.lim.modelOps))
			return
		}
		rep, n, err := s.runGraph(r.Context(), c, rt, g)
		attempts += n
		if err != nil {
			var ge *graphError
			errors.As(err, &ge)
			if ge.strike && s.breakers.record(req.Model, false) {
				s.nBreakerTrips.Add(1)
			}
			httpError(w, ge.status, err.Error())
			return
		}
		addStep(&sum, rep)
		dims.KVLen++
	}
	s.breakers.record(req.Model, true)
	if sum.FaultedTasks > 0 {
		s.nFaults.Add(1)
	}
	if sum.Degraded > 0 {
		s.nDegraded.Add(1)
	}
	s.nModels.Add(1)
	writeJSON(w, http.StatusOK, modelResponse{
		Graph:           sum.Graph,
		Ops:             sum.Ops,
		Stages:          sum.Stages,
		SimCycles:       sum.Cycles,
		Plans:           sum.Plans,
		Stalls:          sum.Stalls,
		PlanMs:          ms(sum.PlanWall),
		StallMs:         ms(sum.StallWall),
		HiddenMs:        ms(sum.HiddenWall),
		HiddenFrac:      sum.HiddenFraction(),
		Degraded:        sum.Degraded,
		Attempts:        attempts,
		FaultedTasks:    sum.FaultedTasks,
		RecoveredStages: sum.RecoveredStages,
		RecoveredFaults: sum.RecoveredFaults,
		Tokens:          tokens,
		PeakMemBytes:    sum.Mem.PeakBytes,
		WorkingSetBytes: sum.Mem.WorkingSetBytes,
		SpilledBuffers:  sum.Mem.SpilledBuffers,
		SpillBytes:      sum.Mem.SpillBytes,
	})
}

// graphError is a failed graph execution: the status it answers with and
// whether it is a strike against the model's circuit breaker.
type graphError struct {
	status int
	strike bool
	err    error
}

func (e *graphError) Error() string { return e.err.Error() }

// runGraph executes one graph and returns its report and the attempt count;
// a non-nil error is a *graphError.
//
// The runtime's recovery ladder absorbs most faults stage-locally; what
// reaches the loop is a typed StageError (ladder exhausted) or, defensively,
// residual faulted tasks. Both get the whole-graph treatment: drop the
// graph's cached programs, back off, and retry under a fresh fault salt —
// bounded by maxRetries.
func (s *Server) runGraph(ctx context.Context, c *core.Compiler, rt *graphrt.Runtime, g nn.Graph) (graphrt.Report, int, error) {
	var stageErr *graphrt.StageError
	for attempts := 0; ; {
		rep, err := rt.ExecuteSalted(ctx, g, uint64(attempts))
		attempts++
		retryable := err == nil && rep.FaultedTasks > 0
		if err != nil && errors.As(err, &stageErr) {
			s.nUnrecoverable.Add(1)
			retryable = true
		}
		if err != nil && !retryable {
			return rep, attempts, &graphError{http.StatusInternalServerError, false, err}
		}
		if !retryable || attempts > maxRetries {
			if err != nil {
				// Retries exhausted on an unrecoverable stage: typed 503 (the
				// device genuinely cannot run this graph right now) and a
				// strike against the model's circuit breaker.
				return rep, attempts, &graphError{http.StatusServiceUnavailable, true, err}
			}
			return rep, attempts, nil
		}
		s.nFaults.Add(1)
		s.nRetries.Add(1)
		if berr := s.bo.sleep(ctx, attempts-1); berr != nil {
			return rep, attempts, &graphError{http.StatusServiceUnavailable, false,
				fmt.Errorf("retry budget interrupted: %w", berr)}
		}
		for shape := range g.GemmShapes() {
			c.Invalidate(shape)
		}
	}
}

// addStep folds one graph's report into a request's running total. The
// memory high-water marks are the largest any step reached; everything else
// adds up. The total keeps the first graph's name.
func addStep(sum *graphrt.Report, r graphrt.Report) {
	if sum.Graph == "" {
		sum.Graph = r.Graph
	}
	sum.Ops += r.Ops
	sum.Stages += r.Stages
	sum.Cycles += r.Cycles
	sum.GemmCycles += r.GemmCycles
	sum.OtherCycles += r.OtherCycles
	sum.SpillCycles += r.SpillCycles
	sum.Plans += r.Plans
	sum.Stalls += r.Stalls
	sum.PlanWall += r.PlanWall
	sum.StallWall += r.StallWall
	sum.HiddenWall += r.HiddenWall
	sum.Degraded += r.Degraded
	sum.FaultedTasks += r.FaultedTasks
	sum.RecoveredStages += r.RecoveredStages
	sum.RecoveredFaults += r.RecoveredFaults
	sum.Mem.CapacityBytes = r.Mem.CapacityBytes
	sum.Mem.Buffers += r.Mem.Buffers
	sum.Mem.PeakBytes = max(sum.Mem.PeakBytes, r.Mem.PeakBytes)
	sum.Mem.WorkingSetBytes = max(sum.Mem.WorkingSetBytes, r.Mem.WorkingSetBytes)
	sum.Mem.SpilledBuffers += r.Mem.SpilledBuffers
	sum.Mem.SpillBytes += r.Mem.SpillBytes
}
