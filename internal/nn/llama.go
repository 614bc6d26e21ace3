package nn

import (
	"fmt"

	"mikpoly/internal/workload"
)

// Llama2-13b under 4-way tensor parallelism (§5.2.4): 40 decoder layers;
// per-GPU GEMM slices as in Table 8. Attention score/context computation is
// fused (FlashAttention-style) identically in FasterTransformer and in the
// MikPoly-integrated build, so it is carried as bandwidth-bound work.
const (
	llamaLayers = 40
	llamaHidden = 5120
)

// Llama2Prefill builds the prompt-processing pass: every GEMM sees
// N = batch·seq in-flight tokens.
func Llama2Prefill(batch, seq int) Graph {
	if batch < 1 || seq < 1 {
		panic(fmt.Sprintf("nn: invalid llama input batch=%d seq=%d", batch, seq))
	}
	return llamaStep(fmt.Sprintf("llama2-13b-prefill@b%d_s%d", batch, seq), batch*seq, batch, seq)
}

// Llama2Decode builds one autoregressive decode step: every GEMM sees
// N = batch in-flight tokens (one new token per sequence, KV-cached).
func Llama2Decode(batch, kvLen int) Graph {
	if batch < 1 || kvLen < 1 {
		panic(fmt.Sprintf("nn: invalid llama decode batch=%d kvLen=%d", batch, kvLen))
	}
	return llamaStep(fmt.Sprintf("llama2-13b-decode@b%d_kv%d", batch, kvLen), batch, batch, kvLen)
}

// llamaStep lays down one full pass with `tokens` tokens in flight and an
// attention context of kvLen per sequence. Explicit dependency edges give
// the true per-layer dataflow (qkv → attention → o_proj → ffn_up →
// ffn_down → elementwise → next layer), which the op emission order —
// GEMMs first, bandwidth-bound work after, the Table 8 convention — does
// not reflect; graph-level schedulers and the memory planner rely on them.
func llamaStep(name string, tokens, batch, kvLen int) Graph {
	ops := workload.LlamaOps()
	g := Graph{Name: name, Ops: make([]Op, 0, llamaLayers*(len(ops)+2))}
	for l := 0; l < llamaLayers; l++ {
		base := len(g.Ops)
		for _, op := range ops {
			// Table 8 convention: M and K are the weight-slice dims,
			// N is the dynamic token dimension.
			g.gemm(fmt.Sprintf("layer%d/%s", l, op.Layer), op.M, tokens, op.K, 1)
		}
		// Fused attention: reads Q plus the KV cache, writes the context
		// (per-GPU slice of the hidden dim), plus RMSNorm/SiLU/residual
		// passes over the token activations.
		attnBytes := float64(batch) * float64(kvLen) * float64(llamaHidden/4) * 2 * 2
		elemBytes := 8 * float64(tokens) * float64(llamaHidden) * 2
		g.other(fmt.Sprintf("layer%d/attention", l), attnBytes, 1)
		g.other(fmt.Sprintf("layer%d/elementwise", l), elemBytes, 1)

		// Layer indices: base+0 qkv_proj, +1 o_proj, +2 ffn_up,
		// +3 ffn_down, +4 attention, +5 elementwise.
		if base > 0 {
			g.Ops[base+0].Inputs = []int{base - 1} // qkv ← previous layer's elementwise
		} else {
			g.Ops[base+0].Inputs = []int{} // graph source
		}
		g.Ops[base+4].Inputs = []int{base + 0} // attention ← qkv_proj
		g.Ops[base+1].Inputs = []int{base + 4} // o_proj ← attention
		g.Ops[base+2].Inputs = []int{base + 1} // ffn_up ← o_proj
		g.Ops[base+3].Inputs = []int{base + 2} // ffn_down ← ffn_up
		g.Ops[base+5].Inputs = []int{base + 3} // elementwise ← ffn_down
	}
	return g
}

// LlamaBatchSizes returns the Fig. 11 batch sweep 2^0..2^3.
func LlamaBatchSizes() []int { return []int{1, 2, 4, 8} }

// LlamaSeqLengths returns the Fig. 11 input-length sweep 2^0..2^9.
func LlamaSeqLengths() []int {
	var out []int
	for i := 0; i <= 9; i++ {
		out = append(out, 1<<i)
	}
	return out
}

// LlamaOutputLen is the fixed generation length of §5.2.4.
const LlamaOutputLen = 512
