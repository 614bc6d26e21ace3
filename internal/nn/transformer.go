package nn

import "fmt"

// TransformerConfig describes an encoder-only language model of the
// HuggingFace families evaluated in Fig. 8 / Table 5.
type TransformerConfig struct {
	Name   string
	Layers int
	Hidden int
	FFN    int
	Heads  int
}

// The four evaluated language models (§5.1): bert-base-uncased,
// distilbert-base-uncased, roberta-base, albert-xlarge-v2.
var (
	BERTBaseConfig     = TransformerConfig{Name: "bert-base", Layers: 12, Hidden: 768, FFN: 3072, Heads: 12}
	DistilBERTConfig   = TransformerConfig{Name: "distilbert", Layers: 6, Hidden: 768, FFN: 3072, Heads: 12}
	RoBERTaBaseConfig  = TransformerConfig{Name: "roberta-base", Layers: 12, Hidden: 768, FFN: 3072, Heads: 12}
	ALBERTXLargeConfig = TransformerConfig{Name: "albert-xlarge", Layers: 24, Hidden: 2048, FFN: 8192, Heads: 16}
)

// LanguageModels returns the Fig. 8 model set.
func LanguageModels() []TransformerConfig {
	return []TransformerConfig{BERTBaseConfig, DistilBERTConfig, RoBERTaBaseConfig, ALBERTXLargeConfig}
}

// Transformer instantiates the encoder graph for one (sequence length,
// batch) input — the dynamic dimensions of Fig. 8. Per layer it emits the
// fused QKV projection, the per-head attention score and context GEMMs, the
// output projection, and the two FFN GEMMs, plus the bandwidth-bound
// layernorm/softmax/GELU/residual traffic.
func Transformer(cfg TransformerConfig, seq, batch int) Graph {
	if seq < 1 || batch < 1 {
		panic(fmt.Sprintf("nn: invalid transformer input seq=%d batch=%d", seq, batch))
	}
	// Six GEMMs and one elementwise op per layer.
	g := Graph{Name: fmt.Sprintf("%s@seq%d_b%d", cfg.Name, seq, batch), Ops: make([]Op, 0, cfg.Layers*7)}
	rows := seq * batch
	headDim := cfg.Hidden / cfg.Heads
	for l := 0; l < cfg.Layers; l++ {
		p := func(op string) string { return fmt.Sprintf("layer%d/%s", l, op) }
		g.gemm(p("qkv_proj"), rows, 3*cfg.Hidden, cfg.Hidden, 1)
		g.gemm(p("attn_scores"), seq, seq, headDim, batch*cfg.Heads)
		g.gemm(p("attn_context"), seq, headDim, seq, batch*cfg.Heads)
		g.gemm(p("out_proj"), rows, cfg.Hidden, cfg.Hidden, 1)
		g.gemm(p("ffn_up"), rows, cfg.FFN, cfg.Hidden, 1)
		g.gemm(p("ffn_down"), rows, cfg.Hidden, cfg.FFN, 1)
		// layernorm ×2, softmax, GELU, residual adds: ~10 activation
		// passes of rows×hidden fp16 elements.
		g.other(p("elementwise"), 10*float64(rows)*float64(cfg.Hidden)*2, 1)
	}
	return g
}

// SequenceLengths returns the Fig. 8 / Table 5 input sweep: 150
// deterministic pseudo-random sentence lengths in [5, 500].
func SequenceLengths() []int {
	out := make([]int, 0, 150)
	s := uint64(424242)
	for len(out) < 150 {
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		v := 5 + int((s*0x2545f4914f6cdd1d)%496)
		out = append(out, v)
	}
	return out
}
