// Planner micro-benchmark harness: the online stage's hot-path trajectory.
//
// MikPoly's premise is that on-the-fly polymerization is cheap enough to run
// at request time for every new shape. This file pins a suite of BERT-style
// dynamic sequence-length and Llama-decode GEMM shapes and, for each, records
// what the planner decided — the chosen program, how many candidates it
// costed and how many it rejected by their lower bound, and its cycle costs
// bit for bit (exact) — what it allocated per plan (no_grow), and how long a
// plan took on this machine (info; end-to-end planner wall time is
// mikload's poly.plan_us). A pinned shape says nothing about per-candidate
// churn on shapes the process has not seen, so each device also plans a
// seeded stream of distinct shapes (the cold-stream cases).
package bench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"mikpoly/internal/core"
	"mikpoly/internal/hw"
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// plannerCase is one pinned measurement: a shape planned on a device.
type plannerCase struct {
	Name    string
	HW      hw.Hardware
	M, N, K int
}

// plannerCases returns the pinned shape sweep. quick subsamples for tests.
//
// The suite is the contract with the committed baseline: adding, removing or
// renaming cases requires refreshing it (make baseline).
func plannerCases(quick bool) []plannerCase {
	var cases []plannerCase
	add := func(name string, h hw.Hardware, m, n, k int) {
		cases = append(cases, plannerCase{Name: name, HW: h, M: m, N: n, K: k})
	}
	// BERT-base dynamic sequence lengths on the GPU (patterns I–II):
	// QKV projection (seq, 768, 768) and FFN expansion (seq, 3072, 768).
	bertSeq := []int{64, 128, 256, 384, 512}
	if quick {
		bertSeq = []int{128, 384}
	}
	for _, s := range bertSeq {
		add(fmt.Sprintf("a100-bert-qkv-s%d", s), hw.A100(), s, 768, 768)
		add(fmt.Sprintf("a100-bert-ffn-s%d", s), hw.A100(), s, 3072, 768)
	}

	// Llama-7B decode on the GPU: batch-many single-token steps hit the
	// skinny-M regime the paper's Fig. 1 motivates.
	llamaBatch := []int{1, 8, 32}
	if quick {
		llamaBatch = []int{8}
	}
	for _, b := range llamaBatch {
		add(fmt.Sprintf("a100-llama-attn-b%d", b), hw.A100(), b, 4096, 4096)
		add(fmt.Sprintf("a100-llama-ffn-b%d", b), hw.A100(), b, 11008, 4096)
	}

	// NPU full nine-pattern search: the expensive end of the online stage.
	npuShapes := []struct {
		name    string
		m, n, k int
	}{
		{"npu-bert-s128", 128, 768, 768},
		{"npu-bert-s384", 384, 3072, 768},
		{"npu-llama-b4", 4, 11008, 4096},
		{"npu-ragged", 509, 3072, 768},
	}
	if quick {
		npuShapes = npuShapes[:2]
	}
	for _, s := range npuShapes {
		add("a910-"+s.name, hw.Ascend910(), s.m, s.n, s.k)
	}
	return cases
}

// plannerSuite measures every case. Libraries are generated once per device
// through the process-wide cache, so repeated runs pay the offline stage
// once.
func plannerSuite(quick bool, _ []uint64) ([]Case, []string, error) {
	var out []Case
	for _, c := range plannerCases(quick) {
		lib, err := core.SharedLibrary(c.HW, tune.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		res, err := measurePlannerCase(c, lib)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	for _, c := range []struct {
		name string
		hw   hw.Hardware
	}{
		{"ascend910-cold-stream", hw.Ascend910()},
		{"a100-cold-stream", hw.A100()},
	} {
		lib, err := core.SharedLibrary(c.hw, tune.DefaultOptions())
		if err != nil {
			return nil, nil, err
		}
		res, err := measureColdStream(c.name, lib)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	return out, nil, nil
}

// plannerMinTime is the minimum sampling window of one planner measurement.
const plannerMinTime = 150 * time.Millisecond

// measurePlannerCase records the planner's decision for one case, then times
// it with a testing-free benchmark loop after a warmup that populates the
// scratch pool, as a serving process would be.
func measurePlannerCase(c plannerCase, lib *tune.Library) (Case, error) {
	p := poly.NewPlanner(lib)
	shape := tensor.GemmShape{M: c.M, N: c.N, K: c.K}

	prog, stats, err := p.Plan(shape)
	if err != nil {
		return Case{}, fmt.Errorf("case %s: %w", c.Name, err)
	}
	res := Case{Name: c.Name, Exact: map[string]string{
		"candidates":        itoa(stats.Candidates),
		"pruned_candidates": itoa(stats.PrunedCandidates),
		"pattern":           prog.Pattern.String(),
		"regions":           itoa(len(prog.Regions)),
		"program":           prog.String(),
		"cycle_cost_bits":   floatBits(prog.EstimatedCost),
		"sim_cycles_bits":   floatBits(prog.Simulate(lib.HW).Cycles),
	}}

	planOnce := func() error {
		_, _, err := p.Plan(shape)
		return err
	}
	for i := 0; i < 16; i++ { // warmup
		if err := planOnce(); err != nil {
			return res, err
		}
	}
	allocs, bytes, ns, err := measureOp(plannerMinTime, 32, planOnce)
	if err != nil {
		return res, err
	}
	res.NoGrow = map[string]int64{"allocs_per_op": allocs, "bytes_per_op": bytes}
	res.Info = map[string]float64{"ns_per_op": ns}
	return res, nil
}

// coldStreamLen is the number of distinct shapes in a cold-stream case, and
// the exact length of its measured window.
const coldStreamLen = 512

// coldStreamShapes is the seeded stream of distinct shapes the cold-stream
// cases plan (and the sim suite simulates the winners of).
func coldStreamShapes() []tensor.GemmShape {
	rng := rand.New(rand.NewSource(22))
	shapes := make([]tensor.GemmShape, coldStreamLen)
	for i := range shapes {
		shapes[i] = tensor.GemmShape{M: 1 + rng.Intn(8192), N: 1 + rng.Intn(8192), K: 1 + rng.Intn(16384)}
	}
	return shapes
}

// measureColdStream plans a fixed seeded stream of distinct shapes. Its exact
// fields fold every decision of the stream — total candidates costed and
// bound-rejected, and a 64-bit hash over each winner's program string and
// cost bits; its no_grow fields are the allocations of one cold plan,
// averaged over a window that covers the stream exactly once (measureOp with
// no time floor and coldStreamLen iterations), so they are as
// machine-independent as the pinned cases'.
func measureColdStream(name string, lib *tune.Library) (Case, error) {
	shapes := coldStreamShapes()
	p := poly.NewPlanner(lib)

	candidates, rejected := 0, 0
	fold := fnv.New64a()
	for _, s := range shapes {
		prog, stats, err := p.Plan(s)
		if err != nil {
			return Case{}, fmt.Errorf("case %s: %w", name, err)
		}
		candidates += stats.Candidates
		rejected += stats.PrunedCandidates
		fmt.Fprintf(fold, "%s %s\n", prog, floatBits(prog.EstimatedCost))
	}
	res := Case{Name: name, Exact: map[string]string{
		"candidates":        itoa(candidates),
		"pruned_candidates": itoa(rejected),
		"programs_fold":     fmt.Sprintf("%016x", fold.Sum64()),
	}}

	next := 0
	allocs, bytes, ns, err := measureOp(0, coldStreamLen, func() error {
		_, _, err := p.Plan(shapes[next%coldStreamLen])
		next++
		return err
	})
	if err != nil {
		return res, err
	}
	res.NoGrow = map[string]int64{"allocs_per_op": allocs, "bytes_per_op": bytes}
	res.Info = map[string]float64{"ns_per_op": ns}
	return res, nil
}
