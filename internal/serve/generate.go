package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"mikpoly/internal/graphrt"
	"mikpoly/internal/nn"
	"mikpoly/internal/sched"
	"mikpoly/internal/workload"
)

// schedExecutor adapts the graph runtime to the generation scheduler. The
// pool label is informational: every step graph runs on the one device.
type schedExecutor struct{ rt *graphrt.Runtime }

// generateRequest is the wire format of one generation request. The prompt
// is materialized deterministically from (tenant, group, prefix_len,
// prompt_len, prompt_seed) — the same construction the synthetic trace
// generator uses — so clients can exercise prefix sharing by naming a group
// and reproduce any request exactly.
type generateRequest struct {
	PromptLen  int    `json:"prompt_len"`
	PromptSeed uint64 `json:"prompt_seed,omitempty"`
	// Group/PrefixLen make the leading PrefixLen tokens a function of
	// (tenant, group) only: requests sharing them share KV pages.
	Group     int `json:"group,omitempty"`
	PrefixLen int `json:"prefix_len,omitempty"`
	Steps     int `json:"steps,omitempty"`    // decode tokens per branch (default 1)
	Priority  int `json:"priority,omitempty"` // 0 most urgent
	Fanout    int `json:"fanout,omitempty"`   // parallel sampling branches
	// DeadlineMs is this request's deadline budget (arrival → first token)
	// in milliseconds; zero takes the server's DeadlineMs default. A
	// request whose queue wait alone exceeds the budget is answered 504
	// without consuming device cycles.
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
}

// generateResponse reports one scheduled generation.
type generateResponse struct {
	Tenant       string  `json:"tenant"`
	Mass         int64   `json:"mass"` // admission cost in tokens
	ReusedTokens int     `json:"reused_tokens"`
	DecodeTokens int     `json:"decode_tokens"`
	TTFTMs       float64 `json:"ttft_ms"`
	MaxStepMs    float64 `json:"max_step_ms"`
	Digest       string  `json:"digest"`
	SLOGood      bool    `json:"slo_good"`
}

// tenantOf resolves the request's tenant from the X-Tenant header and
// validates it against the configured allowlist.
func (s *Server) tenantOf(r *http.Request) (string, error) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if len(s.cfg.Tenants) == 0 {
		return tenant, nil
	}
	for _, t := range s.cfg.Tenants {
		if t == tenant {
			return tenant, nil
		}
	}
	return "", fmt.Errorf("unknown tenant %q", tenant)
}

// handleGenerate runs one request through the SLO-aware generation
// scheduler. Admission here is token-counted, not request-counted: a request
// whose mass (prompt + decode × fanout tokens) cannot fit the scheduler's
// in-flight token budget is rejected with 429 + Retry-After, while the
// request-counted admitMW semaphore only guards handler concurrency.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	loop := s.sched.Load()
	if loop == nil {
		httpError(w, http.StatusServiceUnavailable, "generation scheduler not enabled (SchedDecode)")
		return
	}
	tenant, err := s.tenantOf(r)
	if err != nil {
		httpError(w, http.StatusForbidden, err.Error())
		return
	}
	var req generateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if req.PromptLen < 1 || req.PromptLen > s.lim.dim {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("prompt_len %d outside [1, %d]", req.PromptLen, s.lim.dim))
		return
	}
	if req.Steps < 0 || req.Steps > s.lim.modelSteps {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("steps %d outside [0, %d]", req.Steps, s.lim.modelSteps))
		return
	}
	if req.PrefixLen < 0 || req.PrefixLen > req.PromptLen {
		httpError(w, http.StatusBadRequest, "prefix_len outside [0, prompt_len]")
		return
	}
	if req.Fanout < 0 || req.Fanout > maxGenerateFanout {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("fanout %d outside [0, %d]", req.Fanout, maxGenerateFanout))
		return
	}
	if req.DeadlineMs < 0 {
		httpError(w, http.StatusBadRequest, "deadline_ms must be non-negative")
		return
	}
	if req.Steps == 0 {
		req.Steps = 1
	}

	prompt := workload.TraceRequest{
		Tenant:     tenant,
		Group:      req.Group,
		PrefixLen:  req.PrefixLen,
		PromptLen:  req.PromptLen,
		PromptSeed: req.PromptSeed,
	}.PromptTokens()
	sreq := sched.Request{
		ID:       s.genSeq.Add(1),
		Tenant:   tenant,
		Priority: req.Priority,
		Prompt:   prompt,
		Decode:   req.Steps,
		Fanout:   req.Fanout,
	}
	deadlineMs := req.DeadlineMs
	if deadlineMs == 0 {
		deadlineMs = s.cfg.DeadlineMs
	}
	if deadlineMs > 0 {
		sreq.DeadlineCycles = deadlineMs / 1e3 * loop.Scheduler().Config().HW.ClockHz
	}

	select {
	case res := <-loop.Submit(sreq):
		if res.Err != nil {
			if errors.Is(res.Err, sched.ErrRejected) {
				s.nTokenRejected.Add(1)
				w.Header().Set("Retry-After", retryAfterSeconds(loop.Scheduler()))
				httpError(w, http.StatusTooManyRequests,
					fmt.Sprintf("token budget exhausted: request mass %d tokens", sreq.Mass()))
				return
			}
			if errors.Is(res.Err, sched.ErrDeadline) {
				httpError(w, http.StatusGatewayTimeout,
					"deadline exceeded while queued; request shed before execution")
				return
			}
			httpError(w, http.StatusInternalServerError, res.Err.Error())
			return
		}
		s.nGenerated.Add(1)
		h := loop.Scheduler().Config().HW
		writeJSON(w, http.StatusOK, generateResponse{
			Tenant:       res.Tenant,
			Mass:         sreq.Mass(),
			ReusedTokens: res.ReusedTokens,
			DecodeTokens: res.DecodeTokens,
			TTFTMs:       res.TTFTCycles / h.ClockHz * 1e3,
			MaxStepMs:    res.MaxStepCycle / h.ClockHz * 1e3,
			Digest:       fmt.Sprintf("%016x", res.Digest),
			SLOGood:      res.SLOGood,
		})
	case <-r.Context().Done():
		// The wave loop still owns the request; the buffered result channel
		// absorbs its eventual delivery.
		httpError(w, http.StatusServiceUnavailable, "request interrupted: "+r.Context().Err().Error())
	}
}

// maxGenerateFanout bounds parallel-sampling branches per request.
const maxGenerateFanout = 8

// retryAfterBounds clamp the token-budget Retry-After header: at least 1s
// (the HTTP-sensible floor), at most 30s so a transient spike never tells
// clients to disappear for minutes.
const (
	retryAfterMin = 1
	retryAfterMax = 30
)

// retryAfterHint is the Retry-After value for admitMW's 429s, outside the
// token-budget path: backlog-derived when the generation scheduler is
// running, the 1-second floor otherwise. Before this helper, admitMW
// hardcoded "1", teaching every rejected client to retry in lockstep one
// second later regardless of how deep the backlog actually was.
func (s *Server) retryAfterHint() string {
	if l := s.sched.Load(); l != nil {
		return retryAfterSeconds(l.Scheduler())
	}
	return strconv.Itoa(retryAfterMin)
}

// retryAfterSeconds derives the Retry-After value for a token-budget 429
// from the scheduler's drain estimate — EWMA per-token cost times the
// running-plus-queued token mass — rounded up and clamped to
// [retryAfterMin, retryAfterMax]. A fixed "1" taught every rejected client
// to retry in lockstep regardless of backlog; this backs them off in
// proportion to how saturated the replica actually is.
func retryAfterSeconds(sc *sched.Scheduler) string {
	return retryAfterFromEstimate(sc.EstimateBacklogSeconds())
}

// retryAfterFromEstimate maps a backlog estimate in seconds onto the header
// value (split from retryAfterSeconds so the clamp is unit-testable).
func retryAfterFromEstimate(est float64) string {
	secs := retryAfterMin
	if est > 0 {
		secs = int(math.Ceil(est))
		if secs < retryAfterMin {
			secs = retryAfterMin
		}
		if secs > retryAfterMax {
			secs = retryAfterMax
		}
	}
	return strconv.Itoa(secs)
}

func (e schedExecutor) ExecGraph(ctx context.Context, g nn.Graph, _ string) (float64, error) {
	rep, err := e.rt.Execute(ctx, g)
	if err != nil {
		return 0, err
	}
	return rep.Cycles, nil
}
