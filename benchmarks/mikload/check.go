package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/nn"
	"mikpoly/internal/sched"
	"mikpoly/internal/tensor"
	wl "mikpoly/internal/workload"
)

// Wire formats of the responses, as far as the checker reads them.
type planReply struct {
	Regions []struct {
		Rows   int64 `json:"rows"`
		Cols   int64 `json:"cols"`
		KDepth int64 `json:"k_depth"`
	} `json:"regions"`
	Degraded   bool    `json:"degraded"`
	SimSkipped bool    `json:"sim_skipped"`
	SimCycles  float64 `json:"sim_cycles"`
}

type modelReply struct {
	Graph        string  `json:"graph"`
	Ops          int     `json:"ops"`
	Stages       int     `json:"stages"`
	SimCycles    float64 `json:"sim_cycles"`
	Degraded     int     `json:"degraded"`
	Attempts     int     `json:"attempts"`
	FaultedTasks int     `json:"faulted_tasks"`
	PeakMemBytes int64   `json:"peak_mem_bytes"`
}

type generateReply struct {
	ReusedTokens int     `json:"reused_tokens"`
	DecodeTokens int     `json:"decode_tokens"`
	TTFTMs       float64 `json:"ttft_ms"`
	MaxStepMs    float64 `json:"max_step_ms"`
	Digest       string  `json:"digest"`
}

type execReply struct {
	Degraded     bool      `json:"degraded"`
	FaultedTasks int       `json:"faulted_tasks"`
	Checksum     float64   `json:"checksum"`
	Sample       []float32 `json:"sample"`
}

// checker verifies every response against what the harness knows about the
// request, folds the exact fields into run_digest, and collects the
// device-clock numbers the responses carry.
type checker struct {
	clockHz float64
	digest  uint64
	failed  int
	first   error // first failure, for the report

	seqCycles map[int]uint64 // /model: sim_cycles bits per seq

	// Timed phase only.
	simCycles    float64   // Σ sim_cycles (plan, model)
	deviceMs     []float64 // device time to the first result, per request
	stepMs       []float64 // worst decode step, per request
	promptTokens int64
	reusedTokens int64
	sampled      []sampledGen // /generate: requests to replay without sharing
}

type sampledGen struct {
	p      genParams
	digest string
}

func newChecker(clockHz float64) *checker {
	return &checker{clockHz: clockHz, digest: 14695981039346656037, seqCycles: make(map[int]uint64)}
}

func (c *checker) fail(err error) {
	c.failed++
	if c.first == nil {
		c.first = err
	}
}

func (c *checker) fold(b []byte) {
	for _, x := range b {
		c.digest = (c.digest ^ uint64(x)) * 1099511628211
	}
}

func (c *checker) foldf(format string, a ...any) { c.fold([]byte(fmt.Sprintf(format, a...))) }

// check verifies one response. keep marks the timed phase, whose device
// numbers feed the metrics.
func (c *checker) check(rq *request, status int, body []byte, keep bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", rq.path, rq.body, status, bytes.TrimSpace(body))
	}
	switch rq.path {
	case "/plan":
		var r planReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("/plan %s: %w", rq.body, err)
		}
		var vol int64
		want := int64(rq.shape[0]) * int64(rq.shape[1]) * int64(rq.shape[2])
		for _, reg := range r.Regions {
			vol += reg.Rows * reg.Cols * reg.KDepth
		}
		switch {
		case r.Degraded:
			return fmt.Errorf("/plan %s: degraded to the fallback program", rq.body)
		case vol != want:
			return fmt.Errorf("/plan %s: regions cover %d of %d iterations", rq.body, vol, want)
		case r.SimSkipped || !(r.SimCycles > 0):
			return fmt.Errorf("/plan %s: no simulated cycles", rq.body)
		}
		c.fold(body) // every field of a /plan answer is exact
		if keep {
			c.simCycles += r.SimCycles
			ms := r.SimCycles / c.clockHz * 1e3
			c.deviceMs, c.stepMs = append(c.deviceMs, ms), append(c.stepMs, ms)
		}
	case "/model":
		var r modelReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("/model %s: %w", rq.body, err)
		}
		bits := math.Float64bits(r.SimCycles)
		prev, seen := c.seqCycles[rq.seq]
		switch {
		case r.Degraded != 0 || r.FaultedTasks != 0 || r.Attempts != 1:
			return fmt.Errorf("/model %s: degraded=%d faulted_tasks=%d attempts=%d", rq.body, r.Degraded, r.FaultedTasks, r.Attempts)
		case !(r.SimCycles > 0):
			return fmt.Errorf("/model %s: no simulated cycles", rq.body)
		case seen && prev != bits:
			return fmt.Errorf("/model %s: sim_cycles %x differs from %x for the same seq", rq.body, bits, prev)
		}
		c.seqCycles[rq.seq] = bits
		c.foldf("%s|%d|%d|%x|%d;", r.Graph, r.Ops, r.Stages, bits, r.PeakMemBytes)
		if keep {
			c.simCycles += r.SimCycles
			ms := r.SimCycles / c.clockHz * 1e3
			c.deviceMs, c.stepMs = append(c.deviceMs, ms), append(c.stepMs, ms)
		}
	case "/generate":
		var r generateReply
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("/generate %s: %w", rq.body, err)
		}
		if r.DecodeTokens != rq.tokens {
			return fmt.Errorf("/generate %s: decode_tokens %d, want %d", rq.body, r.DecodeTokens, rq.tokens)
		}
		c.fold(body) // device-clock fields are exact with one client
		if keep {
			c.deviceMs, c.stepMs = append(c.deviceMs, r.TTFTMs), append(c.stepMs, r.MaxStepMs)
			c.promptTokens += int64(rq.gen.promptLen)
			c.reusedTokens += int64(r.ReusedTokens)
			if len(c.sampled) < 16 {
				c.sampled = append(c.sampled, sampledGen{rq.gen, r.Digest})
			}
		}
	}
	return nil
}

// checkExecute posts 16 small /execute requests and compares checksum and
// corner samples with a float64 triple-loop GEMM over the same
// tensor.RandomMatrix operands: the one check of the polymerized programs'
// numerics, with a reference that never comes from the compiler under test.
func checkExecute(cl *client, r *rng) error {
	var out bytes.Buffer
	for i := 0; i < 16; i++ {
		m, n, k := pick(r.float(), 1, 40), pick(r.float(), 1, 40), pick(r.float(), 1, 40)
		sa, sb := r.next()|1, r.next()|1
		body := fmt.Sprintf(`{"m":%d,"n":%d,"k":%d,"seed_a":%d,"seed_b":%d}`, m, n, k, sa, sb)
		code, _ := cl.do("POST", "/execute", []byte(body), &out)
		if code != http.StatusOK {
			return fmt.Errorf("/execute %s: status %d: %s", body, code, bytes.TrimSpace(out.Bytes()))
		}
		if err := verifyExecute(out.Bytes(), m, n, k, sa, sb); err != nil {
			return fmt.Errorf("/execute %s: %w", body, err)
		}
	}
	return nil
}

func verifyExecute(body []byte, m, n, k int, seedA, seedB uint64) error {
	var got execReply
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Degraded || got.FaultedTasks != 0 || len(got.Sample) != 4 {
		return fmt.Errorf("degraded=%v faulted_tasks=%d samples=%d", got.Degraded, got.FaultedTasks, len(got.Sample))
	}
	a, b := tensor.RandomMatrix(m, k, seedA), tensor.RandomMatrix(k, n, seedB)
	ref := make([]float64, m*n)
	sum := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			for l := 0; l < k; l++ {
				acc += float64(a.At(i, l)) * float64(b.At(l, j))
			}
			ref[i*n+j] = acc
			sum += acc
		}
	}
	const tol = 1e-3
	if math.Abs(got.Checksum-sum) > tol {
		return fmt.Errorf("checksum %v, reference %v", got.Checksum, sum)
	}
	corners := [4]float64{ref[0], ref[n-1], ref[(m-1)*n], ref[m*n-1]}
	for i, want := range corners {
		if math.Abs(float64(got.Sample[i])-want) > tol {
			return fmt.Errorf("sample[%d] %v, reference %v", i, got.Sample[i], want)
		}
	}
	return nil
}

// checkSharing replays the sampled /generate requests through a scheduler
// whose KV cache shares nothing and compares decode digests: prefix reuse
// and copy-on-write must be invisible in the output. The digest depends on
// tokens only, so the reference executor charges a constant.
func checkSharing(h hw.Hardware, sampled []sampledGen) error {
	if len(sampled) == 0 {
		return nil
	}
	ref := sched.New(sched.ExecutorFunc(func(context.Context, nn.Graph, string) (float64, error) {
		return 1, nil
	}), sched.Config{HW: h, KV: kvcache.Config{DisableSharing: true}})
	trace := make([]wl.TraceRequest, len(sampled))
	for i, s := range sampled {
		// Arrivals far enough apart that each request runs alone, as it
		// did behind the one client.
		trace[i] = s.p.trace(float64(i) * 1e12)
	}
	_, results, err := ref.Replay(context.Background(), trace)
	if err != nil {
		return fmt.Errorf("reference replay: %w", err)
	}
	if len(results) != len(sampled) {
		return fmt.Errorf("reference replay: %d of %d results", len(results), len(sampled))
	}
	for _, res := range results { // completion order; ID is the trace index
		want := sampled[res.ID].digest
		if res.Err != nil {
			return fmt.Errorf("reference replay of request %d: %w", res.ID, res.Err)
		}
		if got := fmt.Sprintf("%016x", res.Digest); got != want {
			return fmt.Errorf("digest %s with sharing, %s without, for %+v", want, got, sampled[res.ID].p)
		}
	}
	return nil
}

// trace converts the parameters into the request the serve layer builds
// from the same JSON: tenant "default", priority 0.
func (p genParams) trace(arrival float64) wl.TraceRequest {
	return wl.TraceRequest{
		ArrivalCycle: arrival, Tenant: "default",
		Group: p.group, PrefixLen: p.prefixLen, PromptLen: p.promptLen,
		DecodeTokens: p.steps, Fanout: p.fanout, PromptSeed: p.promptSeed,
	}
}

// checkDrained asserts the scheduler let go of every sequence and page.
func checkDrained(v statsView) error {
	if v.KV.Sequences != 0 || v.KV.ActivePages != 0 {
		return fmt.Errorf("after drain: kv.sequences=%d kv.active_pages=%d", v.KV.Sequences, v.KV.ActivePages)
	}
	return nil
}
