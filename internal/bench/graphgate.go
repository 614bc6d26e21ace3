// Graph-layer gate: what a graph execution costs the host, warm and cold.
//
// A serving process executes the same few step graphs over and over, so the
// graph runtime's steady state is a replay of a compiled execution: one
// plan-cache probe per distinct shape and nothing else. This file pins two
// such replays and records what they computed — end-to-end cycles bit for
// bit, the stage count, and the number of simulator calls, which must be
// zero (exact) — and what each replay allocated (no_grow), so nothing can
// creep back in front of the table unnoticed. A warm row fails, too, unless
// the runtime's PE counters after n executions are exactly n times what the
// cold one added. The warm rows no longer run the interpreter, so a third
// case streams graphs it has never seen through it — what every new prefill
// length pays, and every graph once.
package bench

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

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
		cold := rt.Stats()
		simCalls = 0
		warmRuns := 0
		allocs, bytes, ns, err := measureOp(2*plannerMinTime, 32, func() error {
			warmRuns++
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
		if msg := peCountersScale(rt.Stats(), cold, warmRuns+1); msg != "" {
			failed = append(failed, fmt.Sprintf("%s: after %d executions %s", c.name, warmRuns+1, msg))
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
	cold, err := measureColdGraphStream("a100-llama2-prefill-cold-stream", lib)
	if err != nil {
		return nil, nil, err
	}
	return append(out, cold), failed, nil
}

// peCountersScale reports how the cumulative PE counters after n executions
// of one graph differ from n times the first execution's, or "" when they do
// not: whole-cycle counters add up exactly however a warm run adds them.
func peCountersScale(st, first graphrt.Stats, n int) string {
	if st.GemmStageCycles != float64(n)*first.GemmStageCycles {
		return fmt.Sprintf("GemmStageCycles is %v, not %d × %v", st.GemmStageCycles, n, first.GemmStageCycles)
	}
	if len(st.PEBusy) != len(first.PEBusy) {
		return fmt.Sprintf("PEBusy has %d PEs, the first execution %d", len(st.PEBusy), len(first.PEBusy))
	}
	for i, b := range st.PEBusy {
		if b != float64(n)*first.PEBusy[i] {
			return fmt.Sprintf("PEBusy[%d] is %v, not %d × %v", i, b, n, first.PEBusy[i])
		}
	}
	return ""
}

// coldGraphStreamLen is the number of novel graphs in one measured window of
// the cold-stream case.
const coldGraphStreamLen = 64

// measureColdGraphStream executes a fixed seeded stream of Llama prefill
// graphs of distinct lengths, each on a runtime that has never seen it: every
// plan is planned, every distinct stage lowered and simulated, the schedule
// and the memory plan derived. Its exact field folds every graph's end-to-end
// cycles; its no_grow fields are the allocations of one cold execution,
// averaged over a window of coldGraphStreamLen graphs. A window starts on a
// fresh runtime and compiler, built in measureOp's unmeasured warm-up call.
func measureColdGraphStream(name string, lib *tune.Library) (Case, error) {
	lengths := rand.New(rand.NewSource(24)).Perm(512)[:coldGraphStreamLen+1]
	ctx := context.Background()
	var rt *graphrt.Runtime
	fold := fnv.New64a()
	next := 0
	allocs, bytes, ns, err := measureOp(0, coldGraphStreamLen, func() error {
		i := next % len(lengths)
		next++
		if i == 0 {
			rt = graphrt.New(core.NewCompilerFromLibrary(lib), graphrt.Config{
				PlanAhead: 2,
				Health:    health.NewRegistry(lib.HW.NumPEs, health.Config{}),
			})
		}
		rep, err := rt.Execute(ctx, nn.Llama2Prefill(1, 1+lengths[i]))
		if err == nil && next <= len(lengths) {
			fmt.Fprintf(fold, "%s\n", floatBits(rep.Cycles))
		}
		return err
	})
	if err != nil {
		return Case{}, fmt.Errorf("case %s: %w", name, err)
	}
	return Case{
		Name:  name,
		Exact: map[string]string{"cycles_fold": fmt.Sprintf("%016x", fold.Sum64())},
		// Collections inside the window empty the planner's scratch pool, so
		// the means move by an allocation and a few hundred bytes from run to
		// run (827 ± 1 and 223.8 ± 0.1 KiB measured); they are gated rounded
		// to the nearest 16 allocations and 4 KiB — steps wide enough not to
		// teeter and narrow enough that deriving the schedule twice (+15 KiB)
		// shows.
		NoGrow: map[string]int64{"allocs_per_op": (allocs + 8) &^ 15, "bytes_per_op": (bytes + 2048) &^ 4095},
		Info:   map[string]float64{"ns_per_op": ns},
	}, nil
}
