// Graph-layer gate: what a warm graph execution costs the host.
//
// A serving process executes the same few step graphs over and over, so the
// graph runtime's steady state is a replay: every plan is a plan-cache hit
// and every stage a stage-memo hit. This file pins two such replays and
// records what they computed — end-to-end cycles bit for bit, the stage
// count, and the number of simulator calls, which must be zero (exact) — and
// what each replay allocated (no_grow), so task lowering or the plan-ahead
// pool can never creep back in front of the caches unnoticed.
package bench

import (
	"context"
	"fmt"

	"mikpoly/internal/core"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/health"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/sim"
	"mikpoly/internal/tune"
)

// graphSuite measures the pinned warm executions on the runtime mikserve
// builds by default: plan-ahead 2 and a health registry.
func graphSuite(bool, []uint64) ([]Case, []string, error) {
	h := hw.A100()
	lib, err := core.SharedLibrary(h, tune.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	var out []Case
	var failed []string
	for _, c := range []struct {
		name string
		g    nn.Graph
	}{
		{"a100-llama2-decode-b4-kv256", nn.Llama2Decode(4, 256)},
		{"a100-bert-base-s128", nn.Transformer(nn.BERTBaseConfig, 128, 1)},
	} {
		rt := graphrt.New(core.NewCompilerFromLibrary(lib), graphrt.Config{
			PlanAhead: 2,
			Health:    health.NewRegistry(h.NumPEs, health.Config{}),
		})
		simCalls := 0
		rt.SetSimulator(func(h hw.Hardware, _ health.View, tasks []sim.Task, _ uint64) sim.Result {
			simCalls++
			return sim.Run(h, tasks)
		})
		ctx := context.Background()
		rep, err := rt.Execute(ctx, c.g) // cold: plans, lowers, simulates
		if err != nil {
			return nil, nil, fmt.Errorf("case %s: %w", c.name, err)
		}
		simCalls = 0
		allocs, bytes, ns, err := measureOp(2*plannerMinTime, 32, func() error {
			warm, err := rt.Execute(ctx, c.g)
			if err == nil && warm.Cycles != rep.Cycles {
				err = fmt.Errorf("case %s: warm run cost %v cycles, cold run %v", c.name, warm.Cycles, rep.Cycles)
			}
			return err
		})
		if err != nil {
			return nil, nil, err
		}
		if simCalls != 0 {
			failed = append(failed, fmt.Sprintf("%s: warm executions made %d simulator calls", c.name, simCalls))
		}
		out = append(out, Case{
			Name: c.name,
			Exact: map[string]string{
				"cycles_bits":    floatBits(rep.Cycles),
				"stages":         itoa(rep.Stages),
				"sim_calls_warm": itoa(simCalls),
			},
			// The mean bytes per execution is fractional (tiny allocations
			// share 16-byte blocks across executions), so whole KiB are
			// gated: a no_grow field must not teeter on the last byte.
			NoGrow: map[string]int64{"allocs_per_op": allocs, "bytes_per_op": bytes &^ 1023},
			Info:   map[string]float64{"ns_per_op": ns},
		})
	}
	return out, failed, nil
}
