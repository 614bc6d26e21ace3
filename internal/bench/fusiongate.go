// Whole-graph polymerization suite: fused GEMM→epilogue→GEMM chain programs
// vs the per-op path. The self-checks require every case's chain to fuse and
// to beat the unfused execution on simulated cycles, and fused execution to
// reproduce the unfused numerics bit for bit. The simulator, the tuner and
// the planner are all deterministic, so the cycle numbers and output digests
// are exact fields; the fused planner's steady-state allocations are no_grow.
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"mikpoly/internal/core"
	"mikpoly/internal/engine"
	"mikpoly/internal/graphrt"
	"mikpoly/internal/hw"
	"mikpoly/internal/nn"
	"mikpoly/internal/poly"
	"mikpoly/internal/tensor"
	"mikpoly/internal/tune"
)

// fusionStage describes one GEMM stage of a suite chain.
type fusionStage struct {
	N, K int
	// Epilogue names the elementwise function folded onto this stage's
	// output ("relu", "gelu", "" = none; must be empty on the last stage).
	Epilogue string
}

// fusionCase is one end-to-end graph case of the fusion suite.
type fusionCase struct {
	Name string
	// M is the shared row count of the chain.
	M      int
	Stages []fusionStage
}

// graph builds the case's operator graph: the GEMM chain with each named
// epilogue expressed as a standalone elementwise op between the GEMMs —
// exactly what fusion must detect, fold, and beat.
func (c fusionCase) graph(h hw.Hardware) nn.Graph {
	g := nn.Graph{Name: "fusion-" + c.Name}
	for i, st := range c.Stages {
		g.Ops = append(g.Ops, nn.Op{
			Name: fmt.Sprintf("gemm%d", i), Kind: nn.OpGemm,
			Gemm:  tensor.GemmShape{M: c.M, N: st.N, K: st.K},
			Count: 1,
		})
		if st.Epilogue != "" {
			g.Ops = append(g.Ops, nn.Op{
				Name: fmt.Sprintf("%s%d", st.Epilogue, i), Kind: nn.OpOther,
				OtherBytes:  float64(c.M) * float64(st.N) * float64(h.InputBytes+h.OutputBytes),
				Elementwise: st.Epilogue,
				Count:       1,
			})
		}
	}
	return g
}

// spec is the planning request the detector would derive from the graph.
func (c fusionCase) spec() poly.ChainSpec {
	var spec poly.ChainSpec
	for _, st := range c.Stages {
		ep := poly.EpNone
		switch st.Epilogue {
		case "relu":
			ep = poly.EpReLU
		case "gelu":
			ep = poly.EpGELU
		}
		spec.Stages = append(spec.Stages, poly.ChainStageSpec{
			Shape:    tensor.GemmShape{M: c.M, N: st.N, K: st.K},
			Epilogue: ep,
		})
	}
	return spec
}

// fusionCases returns the pinned perf cases: long chains of narrow,
// memory-bound GEMMs with enough rows that strip-level parallelism still
// fills the device — the regime whole-graph polymerization exists for.
// Quick mode subsamples for tests.
func fusionCases(quick bool) []fusionCase {
	cases := []fusionCase{
		{Name: "mlp-relu-14k", M: 13824, Stages: []fusionStage{
			{N: 256, K: 512, Epilogue: "relu"}, {N: 128, K: 256}}},
		{Name: "mlp-gelu-16k", M: 16384, Stages: []fusionStage{
			{N: 128, K: 256, Epilogue: "gelu"}, {N: 128, K: 128}}},
		{Name: "deep-3stage-8k", M: 8192, Stages: []fusionStage{
			{N: 192, K: 384, Epilogue: "relu"}, {N: 96, K: 192, Epilogue: "relu"}, {N: 64, K: 96}}},
		{Name: "ragged-m-relu", M: 7000, Stages: []fusionStage{
			{N: 256, K: 384, Epilogue: "relu"}, {N: 64, K: 256}}},
		{Name: "bare-chain-24k", M: 24576, Stages: []fusionStage{
			{N: 96, K: 192}, {N: 48, K: 96}}},
	}
	if quick {
		return cases[:2]
	}
	return cases
}

// fusionNumericsCases are the conformance shapes for the bitwise gate:
// deliberately small (they execute real arithmetic on the host) and ragged
// in every dimension, with biases exercising the epilogue path.
func fusionNumericsCases() []fusionCase {
	return []fusionCase{
		{Name: "tiny-relu", M: 96, Stages: []fusionStage{
			{N: 48, K: 64, Epilogue: "relu"}, {N: 32, K: 48}}},
		{Name: "ragged-gelu", M: 117, Stages: []fusionStage{
			{N: 53, K: 71, Epilogue: "gelu"}, {N: 29, K: 53}}},
		{Name: "deep-mixed", M: 160, Stages: []fusionStage{
			{N: 64, K: 80, Epilogue: "relu"}, {N: 48, K: 64, Epilogue: "gelu"}, {N: 24, K: 48}}},
		{Name: "wide-k-relu", M: 144, Stages: []fusionStage{
			{N: 40, K: 256, Epilogue: "relu"}, {N: 56, K: 40}}},
	}
}

// fusionSuite measures the fusion suite on the shared A100 library.
func fusionSuite(quick bool, _ []uint64) ([]Case, []string, error) {
	lib, err := core.SharedLibrary(hw.A100(), tune.DefaultOptions())
	if err != nil {
		return nil, nil, err
	}
	h := lib.HW
	var out []Case
	var failed []string

	execute := func(g nn.Graph, fuse bool) (graphrt.Report, error) {
		rt := graphrt.New(core.NewCompilerFromLibrary(lib), graphrt.Config{Fuse: fuse})
		return rt.Execute(context.Background(), g)
	}
	for _, c := range fusionCases(quick) {
		g := c.graph(h)
		unfused, err := execute(g, false)
		if err != nil {
			return nil, nil, fmt.Errorf("case %s unfused: %w", c.Name, err)
		}
		fused, err := execute(g, true)
		if err != nil {
			return nil, nil, fmt.Errorf("case %s fused: %w", c.Name, err)
		}
		allocs, err := measureChainPlanAllocs(lib, c.spec())
		if err != nil {
			return nil, nil, fmt.Errorf("case %s allocs: %w", c.Name, err)
		}
		res := Case{
			Name: c.Name,
			Exact: map[string]string{
				"fused_cycles_bits":   floatBits(fused.Cycles),
				"unfused_cycles_bits": floatBits(unfused.Cycles),
				"fused_chains":        itoa(fused.FusedChains),
			},
			NoGrow: map[string]int64{"plan_allocs_per_op": allocs},
			Info: map[string]float64{
				"fused_cycles":   fused.Cycles,
				"unfused_cycles": unfused.Cycles,
				"saved_bytes":    fused.FusedSavedBytes,
			},
		}
		if fused.Cycles > 0 {
			res.Info["speedup"] = unfused.Cycles / fused.Cycles
		}
		out = append(out, res)
		// A rejected chain makes the case meaningless.
		if fused.FusedChains < 1 {
			failed = append(failed, fmt.Sprintf("%s: chain was not fused (%d rejected)", c.Name, fused.FusionRejected))
		}
		if !(fused.Cycles < unfused.Cycles) {
			failed = append(failed, fmt.Sprintf("%s: fused cycles %.0f do not beat unfused %.0f",
				c.Name, fused.Cycles, unfused.Cycles))
		}
	}

	planner := &poly.Planner{Lib: lib}
	for _, c := range fusionNumericsCases() {
		fd, ud, err := runFusionNumerics(planner, c)
		if err != nil {
			return nil, nil, fmt.Errorf("numerics %s: %w", c.Name, err)
		}
		out = append(out, Case{Name: "numerics-" + c.Name, Exact: map[string]string{
			"fused_digest": fd, "unfused_digest": ud,
		}})
		if fd != ud {
			failed = append(failed, fmt.Sprintf("numerics %s: fused digest %s != unfused %s", c.Name, fd[:12], ud[:12]))
		}
	}
	return out, failed, nil
}

// measureChainPlanAllocs reports the steady-state allocations of one
// PlanChain call: after warmup (pool populated), losing candidates must cost
// nothing — only the winning program materializes.
func measureChainPlanAllocs(lib *tune.Library, spec poly.ChainSpec) (int64, error) {
	p := &poly.Planner{Lib: lib}
	planOnce := func() error {
		_, _, err := p.PlanChain(spec)
		return err
	}
	for i := 0; i < 16; i++ {
		if err := planOnce(); err != nil {
			return 0, err
		}
	}
	allocs, _, _, err := measureOp(0, 64, planOnce)
	return allocs, err
}

// runFusionNumerics executes one conformance chain both ways on identical
// deterministic operands and digests the raw output bits of each.
func runFusionNumerics(p *poly.Planner, c fusionCase) (fusedDigest, unfusedDigest string, err error) {
	spec := c.spec()
	rng := uint64(0x9e3779b97f4a7c15)
	fill := func(m *tensor.Matrix) {
		for i := range m.Data {
			rng = rng*6364136223846793005 + 1442695040888963407
			m.Data[i] = float32(int64(rng>>40)%2048-1024) / 512
		}
	}
	a := tensor.NewMatrix(c.M, c.Stages[0].K)
	fill(a)
	stages := make([]engine.ChainStage, len(c.Stages))
	acts := make([]engine.Activation, len(c.Stages))
	for i, st := range c.Stages {
		b := tensor.NewMatrix(st.K, st.N)
		fill(b)
		bias := make([]float32, st.N)
		for j := range bias {
			rng = rng*6364136223846793005 + 1442695040888963407
			bias[j] = float32(int64(rng>>40)%256-128) / 256
		}
		stages[i] = engine.ChainStage{B: b, Bias: bias}
		switch st.Epilogue {
		case "relu":
			acts[i] = engine.ActReLU
		case "gelu":
			acts[i] = engine.ActGELU
		}
	}

	fusedProg, _, err := p.PlanChain(spec)
	if err != nil {
		return "", "", err
	}
	fusedOut, err := engine.ExecuteChain(fusedProg, a, stages)
	if err != nil {
		return "", "", err
	}

	// Unfused reference: each stage plans and executes standalone with its
	// epilogue applied via the single-op fused write-back.
	cur := a
	for i, st := range c.Stages {
		prog, _, err := p.Plan(tensor.GemmShape{M: c.M, N: st.N, K: st.K})
		if err != nil {
			return "", "", err
		}
		cur, err = engine.ExecuteFused(prog, cur, stages[i].B, engine.Epilogue{Bias: stages[i].Bias, Act: acts[i]})
		if err != nil {
			return "", "", err
		}
	}

	return matrixDigest(fusedOut), matrixDigest(cur), nil
}

// matrixDigest hashes the exact float bit patterns of a matrix's logical
// contents (stride-safe).
func matrixDigest(m *tensor.Matrix) string {
	h := sha256.New()
	var buf [4]byte
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
