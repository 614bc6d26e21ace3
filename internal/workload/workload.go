// Package workload generates the benchmark suites of the paper's evaluation:
// the dynamic-shape GEMM test cases of Table 3 (DeepBench plus real-world
// Transformer and CNN fully-connected shapes, 1599 cases total), the
// dynamic-shape convolution cases of Table 4 (5485 cases across AlexNet,
// GoogLeNet, ResNet and VGG), and the Llama2-13b GEMM operators of Table 8
// (52 cases). Generation is deterministic so every run benchmarks the same
// suite.
package workload

import (
	"fmt"

	"mikpoly/internal/tensor"
)

// Case is one GEMM benchmark case.
type Case struct {
	// ID is a stable identifier like "deepbench/17".
	ID string
	// Category groups cases the way Table 3 does.
	Category string
	// Shape is the runtime GEMM shape.
	Shape tensor.GemmShape
}

// rng is the deterministic generator used across suites (xorshift64*).
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x243f6a8885a308d3
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// intIn returns a deterministic value in [lo, hi].
func (r *rng) intIn(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + int(r.next()%uint64(hi-lo+1))
}

// logIn returns a value in [lo, hi] sampled roughly log-uniformly — matching
// how DeepBench and real model shapes spread over orders of magnitude.
func (r *rng) logIn(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	bitsLo, bitsHi := 0, 0
	for v := lo; v > 1; v >>= 1 {
		bitsLo++
	}
	for v := hi; v > 1; v >>= 1 {
		bitsHi++
	}
	b := r.intIn(bitsLo, bitsHi)
	base := 1 << b
	v := base + int(r.next()%uint64(base))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// DeepBenchGEMM returns the 166 DeepBench-style training/inference GEMMs of
// Table 3 row 1: M ∈ [2, 10752], N ∈ [1, 48000], K ∈ [128, 500000].
func DeepBenchGEMM() []Case {
	r := newRNG(1001)
	out := make([]Case, 0, 166)
	for i := 0; i < 166; i++ {
		s := tensor.GemmShape{
			M: r.logIn(2, 10752),
			N: r.logIn(1, 48000),
			K: r.logIn(128, 500000),
		}
		out = append(out, Case{
			ID:       fmt.Sprintf("deepbench/%d", i),
			Category: "DeepBench",
			Shape:    s,
		})
	}
	return out
}

// transformerModels lists the language models whose GEMM operators populate
// the Transformer rows of Table 3 (hidden size, FFN size, layer count is
// irrelevant for operator shapes).
var transformerModels = []struct {
	name   string
	hidden int
	ffn    int
}{
	{"bert-base", 768, 3072},
	{"distilbert", 768, 3072},
	{"roberta-base", 768, 3072},
	{"albert-xlarge", 2048, 8192},
}

// TransformerGEMM returns count GEMM cases drawn from Transformer operator
// shapes with dynamic sequence length (M = batch·seq ∈ [1, 65536] overall).
func TransformerGEMM(count int) []Case {
	r := newRNG(1002)
	out := make([]Case, 0, count)
	for i := 0; i < count; i++ {
		m := transformerModels[r.intIn(0, len(transformerModels)-1)]
		seq := r.logIn(1, 512)
		batch := r.logIn(1, 64)
		rows := seq * batch
		var s tensor.GemmShape
		switch r.intIn(0, 3) {
		case 0: // fused QKV projection
			s = tensor.GemmShape{M: rows, N: 3 * m.hidden, K: m.hidden}
		case 1: // attention output projection
			s = tensor.GemmShape{M: rows, N: m.hidden, K: m.hidden}
		case 2: // FFN up
			s = tensor.GemmShape{M: rows, N: m.ffn, K: m.hidden}
		default: // FFN down
			s = tensor.GemmShape{M: rows, N: m.hidden, K: m.ffn}
		}
		out = append(out, Case{
			ID:       fmt.Sprintf("transformer/%s/%d", m.name, i),
			Category: "Transformer",
			Shape:    s,
		})
	}
	return out
}

// cnnFCLayers lists the fully-connected layer dimensions (out, in) of the
// four CNNs of Table 3.
var cnnFCLayers = []struct {
	model   string
	out, in int
}{
	{"alexnet", 4096, 9216},
	{"alexnet", 4096, 4096},
	{"alexnet", 1000, 4096},
	{"vgg11", 4096, 25088},
	{"vgg11", 4096, 4096},
	{"vgg11", 1000, 4096},
	{"resnet18", 1000, 512},
	{"googlenet", 1000, 1024},
}

// CNNFCGEMM returns count GEMM cases from CNN fully-connected layers with
// dynamic batch size M ∈ [1, 1024].
func CNNFCGEMM(count int) []Case {
	r := newRNG(1003)
	out := make([]Case, 0, count)
	for i := 0; i < count; i++ {
		l := cnnFCLayers[r.intIn(0, len(cnnFCLayers)-1)]
		out = append(out, Case{
			ID:       fmt.Sprintf("cnnfc/%s/%d", l.model, i),
			Category: "CNN-FC",
			Shape:    tensor.GemmShape{M: r.logIn(1, 1024), N: l.out, K: l.in},
		})
	}
	return out
}

// Table3Suite returns the full GEMM suite: 1599 cases as in §5.2.3
// (166 DeepBench + 1433 real-world).
func Table3Suite() []Case {
	out := DeepBenchGEMM()
	out = append(out, TransformerGEMM(800)...)
	out = append(out, CNNFCGEMM(633)...)
	return out
}

// Subsample keeps every k-th case (k = len/target rounded up), preserving
// category balance well enough for quick runs; target <= 0 or >= len returns
// the input.
func Subsample(cases []Case, target int) []Case {
	if target <= 0 || target >= len(cases) {
		return cases
	}
	step := (len(cases) + target - 1) / target
	out := make([]Case, 0, target)
	for i := 0; i < len(cases); i += step {
		out = append(out, cases[i])
	}
	return out
}
