package nn

import (
	"fmt"
	"strconv"
	"sync"

	"mikpoly/internal/tensor"
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
	return llamaStep(stepName("llama2-13b-prefill@b", batch, "_s", seq), batch*seq, batch, seq)
}

// Llama2Decode builds one autoregressive decode step: every GEMM sees
// N = batch in-flight tokens (one new token per sequence, KV-cached).
func Llama2Decode(batch, kvLen int) Graph {
	if batch < 1 || kvLen < 1 {
		panic(fmt.Sprintf("nn: invalid llama decode batch=%d kvLen=%d", batch, kvLen))
	}
	return llamaStep(stepName("llama2-13b-decode@b", batch, "_kv", kvLen), batch, batch, kvLen)
}

// stepName formats prefix, a, sep, b into a graph name with one allocation: a
// scheduler builds a step graph for every new (batch, length) it meets.
func stepName(prefix string, a int, sep string, b int) string {
	buf := make([]byte, 0, 64)
	buf = strconv.AppendInt(append(buf, prefix...), int64(a), 10)
	buf = strconv.AppendInt(append(buf, sep...), int64(b), 10)
	return string(buf)
}

// llamaStep lays down one full pass with `tokens` tokens in flight and an
// attention context of kvLen per sequence. Everything but the token dimension
// and the two bandwidth terms is the same for every pass, so a pass is a copy
// of llamaSkeleton with those filled in: one allocation, and the op names and
// Inputs edges of every graph alias the skeleton's — read-only by the contract
// of Op.Inputs, which nothing writes after construction.
func llamaStep(name string, tokens, batch, kvLen int) Graph {
	skel := llamaSkeleton()
	g := Graph{Name: name, Ops: make([]Op, len(skel))}
	copy(g.Ops, skel)
	// Fused attention reads Q plus the KV cache and writes the context
	// (per-GPU slice of the hidden dim); the elementwise op is the
	// RMSNorm/SiLU/residual passes over the token activations.
	attnBytes := float64(batch) * float64(kvLen) * float64(llamaHidden/4) * 2 * 2
	elemBytes := 8 * float64(tokens) * float64(llamaHidden) * 2
	for i := range g.Ops {
		op := &g.Ops[i]
		switch {
		case op.Kind == OpGemm:
			op.Gemm.N = tokens
		case i%llamaLayerOps == llamaAttention:
			op.OtherBytes = attnBytes
		default:
			op.OtherBytes = elemBytes
		}
	}
	return g
}

// Op positions within one decoder layer of the skeleton: the four Table 8
// GEMMs in emission order, then the bandwidth-bound work — GEMMs first, the
// Table 8 convention.
const (
	llamaQKV = iota
	llamaOProj
	llamaFFNUp
	llamaFFNDown
	llamaAttention
	llamaElementwise
	llamaLayerOps
)

// llamaSkeleton is the shape-independent part of every Llama pass, built
// once: op names, kinds, the weight-slice dims (Table 8: M and K; N is the
// dynamic token dimension) and explicit dependency edges giving the true
// per-layer dataflow (qkv → attention → o_proj → ffn_up → ffn_down →
// elementwise → next layer), which the emission order does not reflect;
// graph-level schedulers and the memory planner rely on them.
var llamaSkeleton = sync.OnceValue(func() []Op {
	weights := workload.LlamaOps()
	ops := make([]Op, llamaLayers*llamaLayerOps)
	for l := 0; l < llamaLayers; l++ {
		base := l * llamaLayerOps
		layer := ops[base : base+llamaLayerOps]
		for i, w := range weights {
			layer[i] = Op{
				Name: fmt.Sprintf("layer%d/%s", l, w.Layer), Kind: OpGemm,
				Gemm: tensor.GemmShape{M: w.M, K: w.K}, Count: 1,
			}
		}
		layer[llamaAttention] = Op{Name: fmt.Sprintf("layer%d/attention", l), Kind: OpOther, Count: 1}
		layer[llamaElementwise] = Op{Name: fmt.Sprintf("layer%d/elementwise", l), Kind: OpOther, Count: 1}

		layer[llamaQKV].Inputs = []int{} // graph source
		if l > 0 {
			layer[llamaQKV].Inputs = []int{base - 1} // ← previous layer's elementwise
		}
		layer[llamaAttention].Inputs = []int{base + llamaQKV}
		layer[llamaOProj].Inputs = []int{base + llamaAttention}
		layer[llamaFFNUp].Inputs = []int{base + llamaOProj}
		layer[llamaFFNDown].Inputs = []int{base + llamaFFNUp}
		layer[llamaElementwise].Inputs = []int{base + llamaFFNDown}
	}
	return ops
})

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
