// Serving benchmark harness: goodput under SLO on synthetic LLM traffic.
//
// The serve suite drives the multi-tenant scheduler (internal/sched) and its
// paged KV cache (internal/kvcache) over deterministic Zipf/Poisson traces
// (internal/workload), executing every prefill chunk and decode wave through
// a real graph runtime on the simulated device. The clock is virtual —
// executed device cycles — so goodput, decode digests and KV accounting are
// exact, machine-independent values.
//
// Every case runs twice, prefix reuse on and off. The self-checks require
// the decode digests to be bitwise identical (reuse is a pure optimization),
// prefill cycles not to grow under reuse, shared-prefix traces to reuse
// tokens, p99 decode-step latency to stay within the configured SLO bound,
// and zero leaked KV pages.
package bench

import (
	"context"
	"fmt"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/hw"
	"mikpoly/internal/kvcache"
	"mikpoly/internal/nn"
	"mikpoly/internal/sched"
	"mikpoly/internal/tune"
	"mikpoly/internal/workload"
)

// serveCase pins one trace-replay measurement on the simulated A100: a
// synthetic workload, the scheduler/KV configuration it runs under, and the
// SLO it is judged by.
type serveCase struct {
	Name string

	Seed            uint64
	Requests        int
	Tenants         int
	ArrivalsPerSec  float64
	PromptMin       int
	PromptMax       int
	DecodeMin       int
	DecodeMax       int
	GroupsPerTenant int // -1 disables shared prefixes
	SharedFrac      float64
	FanoutEvery     int // -1 disables fanout

	KVPages        int
	PageTokens     int
	PrefillChunk   int
	StepSLOMs      float64
	TTFTSLOMs      float64
	InFlightTokens int64
}

// serveCases returns the pinned serving workloads. quick subsamples the
// traces for tests and smoke runs.
//
// The suite is the contract with the committed baseline: changing a case
// requires refreshing it (make baseline).
func serveCases(quick bool) []serveCase {
	// SLO bounds are calibrated to the simulated A100 under the pinned
	// small library, where one 40-layer decode graph costs ~2-3ms: a
	// decode wave of a few KV buckets plus one prefill chunk needs ~20ms.
	shared := serveCase{
		Name: "a100-shared-prefix",
		Seed: 17, Requests: 64, Tenants: 4, ArrivalsPerSec: 100,
		PromptMin: 64, PromptMax: 768, DecodeMin: 8, DecodeMax: 32,
		GroupsPerTenant: 2, SharedFrac: 0.6, FanoutEvery: 6,
		KVPages: 4096, PageTokens: 16, PrefillChunk: 256,
		StepSLOMs: 35, TTFTSLOMs: 2000, InFlightTokens: 8192,
	}
	long := serveCase{
		Name: "a100-long-prompts",
		Seed: 23, Requests: 40, Tenants: 3, ArrivalsPerSec: 50,
		PromptMin: 512, PromptMax: 2048, DecodeMin: 16, DecodeMax: 48,
		GroupsPerTenant: -1, FanoutEvery: -1,
		KVPages: 8192, PageTokens: 16, PrefillChunk: 256,
		StepSLOMs: 30, TTFTSLOMs: 6000, InFlightTokens: 12288,
	}
	if quick {
		shared.Requests = 20
		long.Requests = 12
	}
	return []serveCase{shared, long}
}

// serveTune is the offline-library scale the serve and overload suites
// execute against: they measure scheduler behavior, not planner scale, and
// the small library keeps them cheap while staying fully deterministic.
var serveTune = tune.Options{NGen: 6, NSyn: 9, NMik: 10, NPred: 256}

// rtExecutor adapts a graph runtime to sched.Executor. The pool label is
// ignored: the bench runs one simulated device for both phases.
type rtExecutor struct{ rt *graphrt.Runtime }

func (e rtExecutor) ExecGraph(ctx context.Context, g nn.Graph, _ string) (float64, error) {
	rep, err := e.rt.Execute(ctx, g)
	if err != nil {
		return 0, err
	}
	return rep.Cycles, nil
}

// serveSuite replays every case twice (prefix reuse on and off) through a
// real graph runtime.
func serveSuite(quick bool, _ []uint64) ([]Case, []string, error) {
	lib, err := core.SharedLibrary(hw.A100(), serveTune)
	if err != nil {
		return nil, nil, err
	}
	var out []Case
	var failed []string
	for _, c := range serveCases(quick) {
		res, checks, err := measureServeCase(c, lib)
		if err != nil {
			return nil, nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
		out = append(out, res)
		failed = append(failed, checks...)
	}
	return out, failed, nil
}

func (c serveCase) traceConfig(h hw.Hardware) workload.TraceConfig {
	return workload.TraceConfig{
		Seed:            c.Seed,
		Requests:        c.Requests,
		Tenants:         c.Tenants,
		ArrivalsPerSec:  c.ArrivalsPerSec,
		ClockHz:         h.ClockHz,
		PromptMin:       c.PromptMin,
		PromptMax:       c.PromptMax,
		DecodeMin:       c.DecodeMin,
		DecodeMax:       c.DecodeMax,
		GroupsPerTenant: c.GroupsPerTenant,
		SharedFrac:      c.SharedFrac,
		FanoutEvery:     c.FanoutEvery,
	}
}

// schedConfig is the scheduler the server builds: its three overload
// defenses are on, as serve.SetCompiler turns them on.
func (c serveCase) schedConfig(h hw.Hardware, disableSharing bool) sched.Config {
	return sched.Config{
		HW: h,
		KV: kvcache.Config{
			NumPages:       c.KVPages,
			TokensPerPage:  c.PageTokens,
			DisableSharing: disableSharing,
		},
		PrefillChunk:      c.PrefillChunk,
		StepSLOMs:         c.StepSLOMs,
		TTFTSLOMs:         c.TTFTSLOMs,
		MaxInFlightTokens: c.InFlightTokens,
		Adaptive:          true,
		ShedDeadlines:     true,
	}
}

// measureServeCase replays one case with prefix reuse on and off against a
// fresh runtime each, then folds both sides into the case and its failed
// self-checks.
func measureServeCase(c serveCase, lib *tune.Library) (Case, []string, error) {
	h := lib.HW
	trace := workload.GenerateTrace(c.traceConfig(h))
	start := time.Now()

	runSide := func(disable bool) (sched.Report, error) {
		comp := core.NewCompilerFromLibrary(lib)
		rt := graphrt.New(comp, graphrt.Config{})
		s := sched.New(rtExecutor{rt}, c.schedConfig(h, disable))
		rep, _, err := s.Replay(context.Background(), trace)
		return rep, err
	}
	on, err := runSide(false)
	if err != nil {
		return Case{}, nil, err
	}
	off, err := runSide(true)
	if err != nil {
		return Case{}, nil, err
	}

	leaked := on.LeakedPages + off.LeakedPages
	res := Case{
		Name: c.Name,
		Exact: map[string]string{
			"goodput_tps_bits": floatBits(on.GoodputTokensPerSec),
			"digest_bits":      fmt.Sprintf("%016x", on.DigestBits),
			"completed":        itoa(on.Completed),
			"failed":           itoa(on.Failed),
			"reused_tokens":    itoa(on.ReusedTokens),
			"cow_copies":       itoa(on.KV.COWCopies),
			"leaked_pages":     itoa(leaked),
		},
		Info: map[string]float64{
			"goodput_tps":        on.GoodputTokensPerSec,
			"p50_step_ms":        on.P50StepMs,
			"p99_step_ms":        on.P99StepMs,
			"p99_ttft_ms":        on.P99TTFTMs,
			"prefill_cycles_on":  on.PrefillCycles,
			"prefill_cycles_off": off.PrefillCycles,
			"kv_saved_bytes":     float64(on.KV.SavedBytes),
			"wall_sec":           time.Since(start).Seconds(),
		},
	}
	if on.Completed > 0 {
		res.Info["slo_good_frac"] = float64(on.SLOGood) / float64(on.Completed)
	}

	var failed []string
	fail := func(format string, args ...any) {
		failed = append(failed, c.Name+": "+fmt.Sprintf(format, args...))
	}
	if on.DigestBits != off.DigestBits || on.Completed != off.Completed {
		fail("decode digests differ between reuse on and off — paging changed results")
	}
	if leaked != 0 {
		fail("%d leaked KV pages (must be 0)", leaked)
	}
	if on.P99StepMs > c.StepSLOMs {
		fail("p99 decode step %.3fms exceeds the %.3fms SLO bound", on.P99StepMs, c.StepSLOMs)
	}
	if on.PrefillCycles > off.PrefillCycles {
		fail("prefix reuse increased prefill cycles (%.4g on vs %.4g off)", on.PrefillCycles, off.PrefillCycles)
	}
	if c.GroupsPerTenant > 0 && on.ReusedTokens == 0 {
		fail("shared-prefix trace reused zero tokens")
	}
	return res, failed, nil
}
