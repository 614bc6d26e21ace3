package nn

import (
	"math"
	"reflect"
	"testing"

	"mikpoly/internal/tensor"
)

func chainGemm(names ...string) Graph {
	g := Graph{Name: "chain"}
	for _, n := range names {
		g.gemm(n, 8, 8, 8, 1)
	}
	return g
}

func TestOpValidateDegenerateCounts(t *testing.T) {
	for _, count := range []int{0, -1, -100} {
		op := Op{Name: "x", Kind: OpGemm, Gemm: tensor.GemmShape{M: 8, N: 8, K: 8}, Count: count}
		if err := op.Validate(); err == nil {
			t.Errorf("count %d accepted", count)
		}
	}
}

func TestOpValidateDegenerateTraffic(t *testing.T) {
	cases := []struct {
		name  string
		bytes float64
		ok    bool
	}{
		{"zero", 0, true},
		{"positive", 1024, true},
		{"negative", -1, false},
		{"nan", math.NaN(), false},
		{"+inf", math.Inf(1), false},
		{"-inf", math.Inf(-1), false},
	}
	for _, c := range cases {
		op := Op{Name: c.name, Kind: OpOther, OtherBytes: c.bytes, Count: 1}
		if err := op.Validate(); (err == nil) != c.ok {
			t.Errorf("%s traffic: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestGraphValidateBadEdges(t *testing.T) {
	base := func() Graph { return chainGemm("a", "b", "c") }

	g := base()
	g.Ops[1].Inputs = []int{5}
	if err := g.Validate(); err == nil {
		t.Error("out-of-range input accepted")
	}
	g = base()
	g.Ops[1].Inputs = []int{-1}
	if err := g.Validate(); err == nil {
		t.Error("negative input accepted")
	}
	g = base()
	g.Ops[1].Inputs = []int{1}
	if err := g.Validate(); err == nil {
		t.Error("self-edge accepted")
	}
	g = base()
	g.Ops[0].Inputs = []int{2}
	g.Ops[2].Inputs = []int{0}
	if err := g.Validate(); err == nil {
		t.Error("dependency cycle accepted")
	}
}

func TestDepsChainDefaultAndExplicit(t *testing.T) {
	g := chainGemm("a", "b", "c")
	var chain [1]int
	if d := g.deps(0, &chain); len(d) != 0 {
		t.Errorf("first op deps %v, want none", d)
	}
	if d := g.deps(2, &chain); !reflect.DeepEqual(d, []int{1}) {
		t.Errorf("chain default deps %v, want [1]", d)
	}
	g.Ops[2].Inputs = []int{0}
	if d := g.deps(2, &chain); !reflect.DeepEqual(d, []int{0}) {
		t.Errorf("explicit deps %v, want [0]", d)
	}
	g.Ops[2].Inputs = []int{}
	if d := g.deps(2, &chain); len(d) != 0 {
		t.Errorf("explicit source deps %v, want none", d)
	}
}

func TestStagesChain(t *testing.T) {
	g := chainGemm("a", "b", "c")
	stages, err := g.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stages, [][]int{{0}, {1}, {2}}) {
		t.Fatalf("chain stages %v", stages)
	}
}

func TestStagesDiamond(t *testing.T) {
	g := chainGemm("a", "b", "c", "d")
	g.Ops[0].Inputs = []int{}
	g.Ops[1].Inputs = []int{0}
	g.Ops[2].Inputs = []int{0}
	g.Ops[3].Inputs = []int{1, 2}
	stages, err := g.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stages, [][]int{{0}, {1, 2}, {3}}) {
		t.Fatalf("diamond stages %v", stages)
	}
}

func TestStagesForwardEdge(t *testing.T) {
	// Edges may point forward in the op list: op 0 consumes op 1's output.
	g := chainGemm("late", "early")
	g.Ops[0].Inputs = []int{1}
	g.Ops[1].Inputs = []int{}
	stages, err := g.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stages, [][]int{{1}, {0}}) {
		t.Fatalf("forward-edge stages %v", stages)
	}
}

func TestConsumersReverseDeps(t *testing.T) {
	g := chainGemm("a", "b", "c", "d")
	g.Ops[3].Inputs = []int{1}
	cons := g.Consumers()
	want := [][]int{{1}, {2, 3}, nil, nil}
	if !reflect.DeepEqual(cons, want) {
		t.Fatalf("consumers %v, want %v", cons, want)
	}
}

// TestLlamaExplicitEdges checks the decode graph's dataflow edges: the graph
// validates, remains a strict per-layer chain (qkv → attention → o_proj →
// ffn_up → ffn_down → elementwise), and layers link through elementwise.
func TestLlamaExplicitEdges(t *testing.T) {
	g := Llama2Decode(1, 64)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	stages, err := g.Stages()
	if err != nil {
		t.Fatal(err)
	}
	if len(stages) != 6*llamaLayers {
		t.Fatalf("%d stages, want %d (strict chain)", len(stages), 6*llamaLayers)
	}
	for s, stage := range stages {
		if len(stage) != 1 {
			t.Fatalf("stage %d has %d ops, want 1", s, len(stage))
		}
	}
	// Stage order within layer 0: qkv(0), attention(4), o_proj(1),
	// ffn_up(2), ffn_down(3), elementwise(5).
	wantOrder := []int{0, 4, 1, 2, 3, 5}
	for s, want := range wantOrder {
		if stages[s][0] != want {
			t.Fatalf("stage %d runs op %d, want %d", s, stages[s][0], want)
		}
	}
	// Prefill shares the structure.
	if err := Llama2Prefill(2, 128).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildModelRegistry(t *testing.T) {
	for _, name := range ModelNames() {
		g, err := BuildModel(name, ModelDims{})
		if err != nil {
			t.Fatalf("%s with default dims: %v", name, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s graph invalid: %v", name, err)
		}
	}
	if _, err := BuildModel("no-such-model", ModelDims{}); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Bad dimensions return errors instead of panicking like the raw
	// builders do.
	if _, err := BuildModel("bert-base", ModelDims{Seq: -1}); err == nil {
		t.Fatal("negative seq accepted")
	}
	if _, err := BuildModel("resnet18", ModelDims{Resolution: 8}); err == nil {
		t.Fatal("sub-minimum resolution accepted")
	}
	if _, err := BuildModel("llama2-decode", ModelDims{KVLen: -3}); err == nil {
		t.Fatal("negative kv accepted")
	}
}
