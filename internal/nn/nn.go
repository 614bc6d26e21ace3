// Package nn provides the operator-graph representation used by the
// end-to-end experiments (§5.2.2–§5.2.4): each evaluated model (the
// BERT-family language models, the TorchVision CNNs, and Llama2-13b) is
// expressed as the sequence of GEMM/convolution operators MikPoly replaces
// plus the aggregate memory traffic of the surrounding non-GEMM operators
// (layernorm, softmax, activation, pooling), which cost the same under every
// compared system and are carried as bandwidth-bound work.
package nn

import (
	"fmt"
	"math"

	"mikpoly/internal/hw"
	"mikpoly/internal/tensor"
)

// OpKind classifies graph operators.
type OpKind int

const (
	// OpGemm is a dense matrix multiplication (dynamic shape).
	OpGemm OpKind = iota
	// OpConv is a convolution executed through the implicit-GEMM path.
	OpConv
	// OpOther is bandwidth-bound non-GEMM work identical across systems.
	OpOther
)

func (k OpKind) String() string {
	switch k {
	case OpGemm:
		return "gemm"
	case OpConv:
		return "conv"
	case OpOther:
		return "other"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one operator instance in a model graph.
type Op struct {
	// Name labels the operator ("layer3/ffn_up").
	Name string
	// Kind selects the payload fields.
	Kind OpKind
	// Gemm is the GEMM shape (the lowering for OpConv).
	Gemm tensor.GemmShape
	// Conv is the original convolution geometry for OpConv.
	Conv tensor.ConvShape
	// Count repeats the operator (e.g., per-head attention GEMMs). The
	// Count instances are mutually independent and may co-schedule.
	Count int
	// OtherBytes is the memory traffic of an OpOther operator.
	OtherBytes float64
	// Inputs lists the indices of the ops whose outputs this op consumes.
	// nil keeps the default chain dependency (the preceding op, if any);
	// a non-nil empty slice marks an explicit source op. Edges may point
	// forward or backward in the op list — Graph.Stages topologically
	// orders them and rejects cycles.
	Inputs []int
}

// Validate checks internal consistency.
func (o Op) Validate() error {
	if o.Count < 1 {
		return fmt.Errorf("nn: op %q has count %d", o.Name, o.Count)
	}
	switch o.Kind {
	case OpGemm:
		if !o.Gemm.Valid() {
			return fmt.Errorf("nn: op %q has invalid GEMM shape %v", o.Name, o.Gemm)
		}
	case OpConv:
		if !o.Conv.Valid() {
			return fmt.Errorf("nn: op %q has invalid conv shape %v", o.Name, o.Conv)
		}
		if o.Gemm != o.Conv.GemmShape() {
			return fmt.Errorf("nn: op %q GEMM lowering mismatch", o.Name)
		}
	case OpOther:
		if o.OtherBytes < 0 || math.IsNaN(o.OtherBytes) || math.IsInf(o.OtherBytes, 0) {
			return fmt.Errorf("nn: op %q has invalid traffic %g", o.Name, o.OtherBytes)
		}
	default:
		return fmt.Errorf("nn: op %q has unknown kind %d", o.Name, int(o.Kind))
	}
	return nil
}

// OtherCycles converts an OpOther's traffic to device cycles at full global
// bandwidth (fused elementwise kernels are bandwidth-bound on both
// platforms).
func (o Op) OtherCycles(h hw.Hardware) float64 {
	return o.OtherBytes / h.GlobalBytesPerCycle
}

// Graph is one model instantiated at concrete dynamic-input settings.
type Graph struct {
	// Name is "model@inputs", e.g. "bert-base@seq128".
	Name string
	Ops  []Op
}

// Validate checks every operator and the dependency structure.
func (g Graph) Validate() error {
	_, err := g.Schedule()
	return err
}

// Schedule is Validate and Stages in one pass: the stage schedule of a graph
// whose operators and dependency structure are all valid, or the error
// Validate reports. An executor needs both answers and derives the schedule
// once.
func (g Graph) Schedule() ([][]int, error) {
	if len(g.Ops) == 0 {
		return nil, fmt.Errorf("nn: graph %q has no operators", g.Name)
	}
	for i := range g.Ops {
		if err := g.Ops[i].Validate(); err != nil {
			return nil, fmt.Errorf("graph %q: %w", g.Name, err)
		}
	}
	stages, err := g.Stages()
	if err != nil {
		return nil, fmt.Errorf("graph %q: %w", g.Name, err)
	}
	return stages, nil
}

// deps returns the effective dependency list of op i: its explicit Inputs
// edges, or — when Inputs is nil — the chain default (the preceding op),
// written into caller-owned storage so walking every op's dependencies
// allocates nothing.
func (g Graph) deps(i int, chain *[1]int) []int {
	if in := g.Ops[i].Inputs; in != nil {
		return in
	}
	if i == 0 {
		return nil
	}
	chain[0] = i - 1
	return chain[:]
}

// Stages returns the topological schedule of the graph: stage s holds the
// indices of ops whose dependencies all complete in stages < s (each stage
// is the set of ops at equal longest-path depth). Ops sharing a stage are
// mutually independent and may be co-scheduled on the device. An op index
// out of range, a self-edge, or a dependency cycle is an error.
func (g Graph) Stages() ([][]int, error) {
	n := len(g.Ops)
	var chain [1]int
	indeg := make([]int, n)
	for i := 0; i < n; i++ {
		for _, d := range g.deps(i, &chain) {
			if d < 0 || d >= n {
				return nil, fmt.Errorf("nn: op %q input %d out of range [0,%d)", g.Ops[i].Name, d, n)
			}
			if d == i {
				return nil, fmt.Errorf("nn: op %q depends on itself", g.Ops[i].Name)
			}
			indeg[i]++
		}
	}
	start, succ := g.consumerRows()
	// Kahn's algorithm by levels: the first stage holds the sources in index
	// order, every later one its ops in the order their last dependency
	// completed, so the schedule is deterministic. The stages returned are
	// consecutive runs of one slice.
	order := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	stages := make([][]int, 0, n)
	for lo := 0; lo < len(order); {
		hi := len(order)
		stages = append(stages, order[lo:hi:hi])
		for _, i := range order[lo:hi] {
			for _, s := range succ[start[i]:start[i+1]] {
				indeg[s]--
				if indeg[s] == 0 {
					order = append(order, s)
				}
			}
		}
		lo = hi
	}
	if len(order) != n {
		return nil, fmt.Errorf("nn: graph has a dependency cycle (%d of %d ops unreachable)", n-len(order), n)
	}
	return stages, nil
}

// consumerRows is the reverse adjacency of Deps in compressed rows:
// succ[start[d]:start[d+1]] lists, in index order, the ops that read op d's
// output (once per edge). Dependencies out of range are skipped. Two
// allocations however many edges there are.
func (g Graph) consumerRows() (start, succ []int) {
	n := len(g.Ops)
	var chain [1]int
	// Counted two slots to the right, summed, then used as fill cursors one
	// slot to the right, the offsets end up in place: at[d] is where row d
	// begins and at[n] the number of edges.
	at := make([]int, n+2)
	for i := 0; i < n; i++ {
		for _, d := range g.deps(i, &chain) {
			if d >= 0 && d < n {
				at[d+2]++
			}
		}
	}
	for d := 2; d < n+2; d++ {
		at[d] += at[d-1]
	}
	succ = make([]int, at[n+1])
	for i := 0; i < n; i++ {
		for _, d := range g.deps(i, &chain) {
			if d >= 0 && d < n {
				succ[at[d+1]] = i
				at[d+1]++
			}
		}
	}
	return at[:n+1], succ
}

// Consumers returns, per op, the indices of the ops that read its output —
// the reverse adjacency of Deps, used for buffer liveness.
func (g Graph) Consumers() [][]int {
	start, succ := g.consumerRows()
	out := make([][]int, len(g.Ops))
	for d := range out {
		if lo, hi := start[d], start[d+1]; hi > lo {
			out[d] = succ[lo:hi:hi]
		}
	}
	return out
}

// gemm appends a GEMM op.
func (g *Graph) gemm(name string, m, n, k, count int) {
	g.Ops = append(g.Ops, Op{
		Name: name, Kind: OpGemm,
		Gemm:  tensor.GemmShape{M: m, N: n, K: k},
		Count: count,
	})
}

// conv appends a convolution op via its implicit-GEMM lowering.
func (g *Graph) conv(name string, cs tensor.ConvShape, count int) {
	g.Ops = append(g.Ops, Op{
		Name: name, Kind: OpConv,
		Conv: cs, Gemm: cs.GemmShape(),
		Count: count,
	})
}

// other appends bandwidth-bound non-GEMM work.
func (g *Graph) other(name string, bytes float64, count int) {
	g.Ops = append(g.Ops, Op{Name: name, Kind: OpOther, OtherBytes: bytes, Count: count})
}
