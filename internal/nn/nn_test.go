package nn

import (
	"testing"

	"mikpoly/internal/hw"
	"mikpoly/internal/tensor"
)

func TestOpValidate(t *testing.T) {
	good := Op{Name: "g", Kind: OpGemm, Gemm: tensor.GemmShape{M: 1, N: 1, K: 1}, Count: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Op{
		{Name: "count", Kind: OpGemm, Gemm: tensor.GemmShape{M: 1, N: 1, K: 1}, Count: 0},
		{Name: "shape", Kind: OpGemm, Count: 1},
		{Name: "conv", Kind: OpConv, Count: 1},
		{Name: "neg", Kind: OpOther, OtherBytes: -1, Count: 1},
		{Name: "kind", Kind: OpKind(9), Count: 1},
	}
	for _, o := range bad {
		if o.Validate() == nil {
			t.Errorf("op %q should fail validation", o.Name)
		}
	}
	// Conv lowering mismatch.
	cs := tensor.ConvShape{Batch: 1, InC: 1, InH: 4, InW: 4, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 0}
	mismatch := Op{Name: "c", Kind: OpConv, Conv: cs, Gemm: tensor.GemmShape{M: 1, N: 1, K: 1}, Count: 1}
	if mismatch.Validate() == nil {
		t.Fatal("lowering mismatch not caught")
	}
}

func TestOtherCycles(t *testing.T) {
	h := hw.A100()
	o := Op{Kind: OpOther, OtherBytes: h.GlobalBytesPerCycle * 100, Count: 1}
	if got := o.OtherCycles(h); got != 100 {
		t.Fatalf("OtherCycles = %g", got)
	}
}

func TestTransformerGraphs(t *testing.T) {
	for _, cfg := range LanguageModels() {
		g := Transformer(cfg, 128, 1)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		shapes := g.GemmShapes()
		qkv := tensor.GemmShape{M: 128, N: 3 * cfg.Hidden, K: cfg.Hidden}
		if shapes[qkv] != cfg.Layers {
			t.Fatalf("%s: qkv count = %d, want %d", cfg.Name, shapes[qkv], cfg.Layers)
		}
		// Score and context GEMMs coincide when headDim == seq (ALBERT at
		// seq 128), so expect at least one layer×head count.
		attn := tensor.GemmShape{M: 128, N: 128, K: cfg.Hidden / cfg.Heads}
		if shapes[attn] < cfg.Layers*cfg.Heads {
			t.Fatalf("%s: attention GEMM count = %d, want >= %d",
				cfg.Name, shapes[attn], cfg.Layers*cfg.Heads)
		}
		if g.TotalFLOPs() <= 0 {
			t.Fatalf("%s: no FLOPs", cfg.Name)
		}
	}
}

func TestDistilBERTHalfOfBERT(t *testing.T) {
	b := Transformer(BERTBaseConfig, 128, 1).TotalFLOPs()
	d := Transformer(DistilBERTConfig, 128, 1).TotalFLOPs()
	if ratio := b / d; ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("BERT/DistilBERT FLOPs ratio = %g, want ~2 (12 vs 6 layers)", ratio)
	}
}

func TestSequenceLengths(t *testing.T) {
	ls := SequenceLengths()
	if len(ls) != 150 {
		t.Fatalf("len = %d, want 150", len(ls))
	}
	for _, l := range ls {
		if l < 5 || l > 500 {
			t.Fatalf("length %d outside [5, 500]", l)
		}
	}
	again := SequenceLengths()
	for i := range ls {
		if ls[i] != again[i] {
			t.Fatal("sequence lengths not deterministic")
		}
	}
}

func TestCNNGraphsValidAcrossSweep(t *testing.T) {
	for name, build := range CNNModels() {
		for _, batch := range []int{1, 128} {
			for _, res := range []int{64, 224, 640} {
				g := build(batch, res)
				if err := g.Validate(); err != nil {
					t.Fatalf("%s b%d r%d: %v", name, batch, res, err)
				}
				convs := 0
				for _, o := range g.Ops {
					if o.Kind == OpConv {
						convs++
					}
				}
				if convs < 5 {
					t.Fatalf("%s: only %d conv layers", name, convs)
				}
			}
		}
	}
}

func TestCNNFLOPsScaleWithInputs(t *testing.T) {
	small := VGG11(1, 64).TotalFLOPs()
	bigBatch := VGG11(8, 64).TotalFLOPs()
	bigRes := VGG11(1, 224).TotalFLOPs()
	if bigBatch < 4*small {
		t.Fatalf("batch scaling too weak: %g vs %g", bigBatch, small)
	}
	if bigRes < 5*small {
		t.Fatalf("resolution scaling too weak: %g vs %g", bigRes, small)
	}
}

func TestCNNSweeps(t *testing.T) {
	if got := CNNBatchSizes(); len(got) != 8 || got[0] != 1 || got[7] != 128 {
		t.Fatalf("batch sweep %v", got)
	}
	if got := CNNResolutions(); len(got) != 10 || got[0] != 64 || got[9] != 640 {
		t.Fatalf("resolution sweep %v", got)
	}
}

func TestResNet18FinalFC(t *testing.T) {
	g := ResNet18(4, 224)
	last := g.Ops[len(g.Ops)-1]
	if last.Kind != OpGemm || last.Gemm.N != 1000 || last.Gemm.K != 512 || last.Gemm.M != 4 {
		t.Fatalf("final FC = %+v", last)
	}
}

func TestGoogLeNetChannelsConcat(t *testing.T) {
	g := GoogLeNet(1, 224)
	// inception 3a concat: 64+128+32+32 = 256 output channels feed 3b's
	// 1x1 branch as K = InC·1·1 = 256.
	found := false
	for _, o := range g.Ops {
		if o.Name == "inception3b/1x1" {
			found = true
			if o.Conv.InC != 256 {
				t.Fatalf("3b input channels = %d, want 256", o.Conv.InC)
			}
		}
	}
	if !found {
		t.Fatal("inception3b/1x1 missing")
	}
}

func TestLlamaGraphs(t *testing.T) {
	pre := Llama2Prefill(2, 128)
	if err := pre.Validate(); err != nil {
		t.Fatal(err)
	}
	dec := Llama2Decode(2, 128)
	if err := dec.Validate(); err != nil {
		t.Fatal(err)
	}
	// 40 layers × 4 GEMMs each.
	if n := len(pre.GemmShapes()); n != 4 {
		t.Fatalf("prefill distinct GEMM shapes = %d, want 4", n)
	}
	total := 0
	for _, c := range pre.GemmShapes() {
		total += c
	}
	if total != 160 {
		t.Fatalf("prefill GEMM count = %d, want 160", total)
	}
	// Decode tokens = batch, prefill tokens = batch*seq.
	for s := range pre.GemmShapes() {
		if s.N != 256 {
			t.Fatalf("prefill token dim = %d, want 256", s.N)
		}
	}
	for s := range dec.GemmShapes() {
		if s.N != 2 {
			t.Fatalf("decode token dim = %d, want 2", s.N)
		}
	}
}

func TestLlamaSweeps(t *testing.T) {
	if got := LlamaBatchSizes(); len(got) != 4 {
		t.Fatalf("batch sweep %v", got)
	}
	if got := LlamaSeqLengths(); len(got) != 10 || got[9] != 512 {
		t.Fatalf("seq sweep %v", got)
	}
	if LlamaOutputLen != 512 {
		t.Fatal("output length must match §5.2.4")
	}
}

func TestGraphValidateEmpty(t *testing.T) {
	g := Graph{Name: "empty"}
	if g.Validate() == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBuilderPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { Transformer(BERTBaseConfig, 0, 1) },
		func() { AlexNet(0, 224) },
		func() { Llama2Prefill(1, 0) },
		func() { Llama2Decode(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestFasterRCNNGraph(t *testing.T) {
	g := FasterRCNN(1, 600, 800, 300)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The ROI head GEMMs must carry the proposal count as their M dim.
	found := false
	for _, o := range g.Ops {
		if o.Name == "roi/fc6" {
			found = true
			if o.Gemm.M != 300 || o.Gemm.K != 512*7*7 {
				t.Fatalf("roi/fc6 = %v", o.Gemm)
			}
		}
	}
	if !found {
		t.Fatal("roi/fc6 missing")
	}
	// Non-square resolutions must flow through the backbone.
	g2 := FasterRCNN(2, 480, 640, 50)
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}
	if g2.TotalFLOPs() >= g.TotalFLOPs()*2 {
		t.Fatal("smaller resolution should not cost more")
	}
}

func TestFasterRCNNDynamicAxesIndependent(t *testing.T) {
	base := FasterRCNN(1, 600, 800, 100)
	moreProps := FasterRCNN(1, 600, 800, 1000)
	bigger := FasterRCNN(1, 1080, 1920, 100)
	// More proposals grow only the ROI GEMMs; higher resolution grows
	// only the backbone convs.
	if moreProps.TotalFLOPs() <= base.TotalFLOPs() {
		t.Fatal("proposals did not scale ROI work")
	}
	if bigger.TotalFLOPs() <= base.TotalFLOPs() {
		t.Fatal("resolution did not scale backbone work")
	}
	baseShapes := base.GemmShapes()
	propShapes := moreProps.GemmShapes()
	// Backbone conv shapes identical across proposal counts.
	for s := range baseShapes {
		if s.K == 512*7*7 || s.K == 1024 {
			continue // ROI head shapes differ by design
		}
		if _, ok := propShapes[s]; !ok {
			t.Fatalf("backbone shape %v changed with proposal count", s)
		}
	}
}

func TestDetectionSweeps(t *testing.T) {
	if len(DetectionProposalCounts()) < 3 {
		t.Fatal("proposal sweep too small")
	}
	for _, r := range DetectionResolutions() {
		if r[0] < 64 || r[1] < 64 {
			t.Fatalf("bad resolution %v", r)
		}
	}
}

func TestFasterRCNNPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FasterRCNN(1, 600, 800, 0)
}

// TotalFLOPs sums the GEMM work of the graph.
func (g Graph) TotalFLOPs() float64 {
	var f float64
	for _, o := range g.Ops {
		if o.Kind == OpGemm || o.Kind == OpConv {
			f += o.Gemm.FLOPs() * float64(o.Count)
		}
	}
	return f
}
