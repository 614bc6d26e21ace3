package nn

import (
	"fmt"
	"reflect"
	"testing"

	"mikpoly/internal/workload"
)

// The builders size g.Ops once instead of growing it by append doubling.
// These are the constructions they replaced, kept here so the test can hold
// the graphs element-for-element equal to what they were.

func llamaStepGrown(name string, tokens, batch, kvLen int) Graph {
	g := Graph{Name: name}
	for l := 0; l < llamaLayers; l++ {
		base := len(g.Ops)
		for _, op := range workload.LlamaOps() {
			g.gemm(fmt.Sprintf("layer%d/%s", l, op.Layer), op.M, tokens, op.K, 1)
		}
		g.other(fmt.Sprintf("layer%d/attention", l), float64(batch)*float64(kvLen)*float64(llamaHidden/4)*2*2, 1)
		g.other(fmt.Sprintf("layer%d/elementwise", l), 8*float64(tokens)*float64(llamaHidden)*2, 1)
		g.Ops[base+0].Inputs = []int{}
		if base > 0 {
			g.Ops[base+0].Inputs = []int{base - 1}
		}
		g.Ops[base+4].Inputs = []int{base + 0}
		g.Ops[base+1].Inputs = []int{base + 4}
		g.Ops[base+2].Inputs = []int{base + 1}
		g.Ops[base+3].Inputs = []int{base + 2}
		g.Ops[base+5].Inputs = []int{base + 3}
	}
	return g
}

func transformerGrown(cfg TransformerConfig, seq, batch int) Graph {
	g := Graph{Name: fmt.Sprintf("%s@seq%d_b%d", cfg.Name, seq, batch)}
	rows, headDim := seq*batch, cfg.Hidden/cfg.Heads
	for l := 0; l < cfg.Layers; l++ {
		p := func(op string) string { return fmt.Sprintf("layer%d/%s", l, op) }
		g.gemm(p("qkv_proj"), rows, 3*cfg.Hidden, cfg.Hidden, 1)
		g.gemm(p("attn_scores"), seq, seq, headDim, batch*cfg.Heads)
		g.gemm(p("attn_context"), seq, headDim, seq, batch*cfg.Heads)
		g.gemm(p("out_proj"), rows, cfg.Hidden, cfg.Hidden, 1)
		g.gemm(p("ffn_up"), rows, cfg.FFN, cfg.Hidden, 1)
		g.gemm(p("ffn_down"), rows, cfg.Hidden, cfg.FFN, 1)
		g.other(p("elementwise"), 10*float64(rows)*float64(cfg.Hidden)*2, 1)
	}
	return g
}

func TestPreallocatedBuildersBuildTheSameGraphs(t *testing.T) {
	check := func(got, want Graph) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: preallocated graph differs from the grown one", want.Name)
		}
		if len(got.Ops) != cap(got.Ops) {
			t.Errorf("%s: %d ops in a slice of capacity %d, want sized exactly", got.Name, len(got.Ops), cap(got.Ops))
		}
	}
	for _, d := range [][2]int{{1, 1}, {1, 128}, {4, 256}, {8, 1024}} {
		n, kv := d[0], d[1]
		check(Llama2Decode(n, kv), llamaStepGrown(fmt.Sprintf("llama2-13b-decode@b%d_kv%d", n, kv), n, n, kv))
		check(Llama2Prefill(n, kv), llamaStepGrown(fmt.Sprintf("llama2-13b-prefill@b%d_s%d", n, kv), n*kv, n, kv))
	}
	// llamaStep fills a copy of a skeleton built once; the loop it replaced
	// is the reference over the whole (tokens, batch, kv) cube, with the
	// attention context summed over the batch.
	sizes := []int{1, 2, 7, 128, 2048}
	for _, tokens := range sizes {
		for _, batch := range sizes {
			for _, kv := range sizes {
				name := fmt.Sprintf("t%d_b%d_kv%d", tokens, batch, kv)
				check(llamaStep(name, tokens, batch*kv), llamaStepGrown(name, tokens, batch, kv))
			}
		}
	}
	for _, seq := range []int{1, 37, 128, 512} {
		check(Transformer(BERTBaseConfig, seq, 1), transformerGrown(BERTBaseConfig, seq, 1))
		check(Transformer(ALBERTXLargeConfig, seq, 2), transformerGrown(ALBERTXLargeConfig, seq, 2))
	}
}

// TestLlamaStepAllocations: a step graph is its op slice and its name.
func TestLlamaStepAllocations(t *testing.T) {
	Llama2Decode(1, 1) // builds the skeleton
	if allocs := testing.AllocsPerRun(50, func() { Llama2Decode(2, 256) }); allocs > 2 {
		t.Fatalf("Llama2Decode allocates %.0f times, want at most 2", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { LlamaPass(2, 512) }); allocs > 2 {
		t.Fatalf("LlamaPass allocates %.0f times, want at most 2", allocs)
	}
}

// TestLlamaPhasesArePasses: a prefill of batch b and length s is the pass
// (b·s, b·s) and a decode step of batch b at KV length kv the pass (b, b·kv),
// op for op and bit for bit; only the name differs. The ranges cover every
// shape the scheduler, the benchmark workloads and the gates build — decode
// batches up to 8 at page-padded KV lengths up to 4 096, prefill chunks and
// prompts up to 2 048 tokens — and the Fig. 11 sweep.
func TestLlamaPhasesArePasses(t *testing.T) {
	same := func(phase, pass Graph) {
		t.Helper()
		if !reflect.DeepEqual(phase.Ops, pass.Ops) {
			t.Fatalf("%s differs from %s", phase.Name, pass.Name)
		}
	}
	for b := 1; b <= 8; b++ {
		for kv := 128; kv <= 4096; kv += 128 {
			same(Llama2Decode(b, kv), LlamaPass(b, b*kv))
		}
	}
	for s := 1; s <= 2048; s++ {
		same(Llama2Prefill(1, s), LlamaPass(s, s))
	}
	for _, b := range LlamaBatchSizes() {
		for _, s := range LlamaSeqLengths() {
			same(Llama2Prefill(b, s), LlamaPass(b*s, b*s))
			kv := s + LlamaOutputLen/2
			same(Llama2Decode(b, kv), LlamaPass(b, b*kv))
		}
	}
	if g := LlamaPass(3, 384); g.Name != "llama2-13b@t3_kv384" {
		t.Fatalf("pass named %q", g.Name)
	}
}
