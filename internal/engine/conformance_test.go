package engine

// Operator conformance: the end-to-end experiments replace every GEMM and
// convolution in the evaluated models with MikPoly-planned programs, so every
// distinct operator shape those graphs contain must execute bit-plausibly.
// This harness walks the real model graphs, plans each (size-capped) shape,
// executes it on random operands, and compares against reference GEMM — the
// engineering content behind Table 5's "zero invalid runs".

import (
	"testing"

	"mikpoly/internal/nn"
	"mikpoly/internal/tensor"
)

// conformanceCap bounds the work per operator so the harness stays fast;
// the correctness mechanism (local padding + region partition) is size
// independent.
const conformanceCap = 1 << 22 // M·N·K

func conformanceGraphs() []nn.Graph {
	return []nn.Graph{
		nn.Transformer(nn.BERTBaseConfig, 37, 1),
		nn.Transformer(nn.DistilBERTConfig, 203, 1),
		nn.Transformer(nn.ALBERTXLargeConfig, 64, 1),
		nn.ResNet18(1, 64),
		nn.AlexNet(1, 96),
		nn.GoogLeNet(1, 64),
		nn.VGG11(1, 64),
		nn.FasterRCNN(1, 64, 96, 30),
		nn.Llama2Decode(2, 64),
	}
}

func TestModelOperatorConformance(t *testing.T) {
	pl := planner(t)
	tested := 0
	seen := map[tensor.GemmShape]bool{}
	for _, g := range conformanceGraphs() {
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		for _, op := range g.Ops {
			shape := op.Gemm
			if op.Kind == nn.OpOther || seen[shape] {
				continue
			}
			seen[shape] = true
			if float64(shape.M)*float64(shape.N)*float64(shape.K) > conformanceCap {
				continue
			}
			prog, _, err := pl.Plan(shape)
			if err != nil {
				t.Fatalf("%s %v: plan: %v", g.Name, shape, err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("%s %v: %v", g.Name, shape, err)
			}
			a := tensor.RandomMatrix(shape.M, shape.K, uint64(shape.M*31+shape.K))
			b := tensor.RandomMatrix(shape.K, shape.N, uint64(shape.K*37+shape.N))
			got, err := Execute(prog, a, b)
			if err != nil {
				t.Fatalf("%s %v: execute: %v", g.Name, shape, err)
			}
			if !tensor.AllClose(got, tensor.Gemm(a, b), 1e-3) {
				t.Fatalf("%s %v: wrong result", g.Name, shape)
			}
			tested++
		}
	}
	if tested < 30 {
		t.Fatalf("only %d operator shapes exercised; conformance sweep too thin", tested)
	}
	t.Logf("conformance: %d distinct operator shapes executed and validated", tested)
}
