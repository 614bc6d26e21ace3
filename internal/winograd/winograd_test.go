package winograd

import (
	"math"
	"testing"
	"testing/quick"

	"mikpoly/internal/tensor"
)

func TestApplicable(t *testing.T) {
	good := tensor.ConvShape{Batch: 1, InC: 2, InH: 8, InW: 8, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}
	if !Applicable(good) {
		t.Fatal("stride-1 3x3 must be applicable")
	}
	for _, bad := range []tensor.ConvShape{
		{Batch: 1, InC: 2, InH: 8, InW: 8, OutC: 3, KH: 5, KW: 5, Stride: 1, Pad: 2},
		{Batch: 1, InC: 2, InH: 8, InW: 8, OutC: 3, KH: 3, KW: 3, Stride: 2, Pad: 1},
		{},
	} {
		if Applicable(bad) {
			t.Fatalf("%v should not be applicable", bad)
		}
	}
}

func TestConvMatchesDirect(t *testing.T) {
	cases := []tensor.ConvShape{
		{Batch: 1, InC: 1, InH: 6, InW: 6, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{Batch: 2, InC: 3, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 1, InC: 2, InH: 7, InW: 9, OutC: 3, KH: 3, KW: 3, Stride: 1, Pad: 1}, // odd output dims
		{Batch: 1, InC: 4, InH: 5, InW: 5, OutC: 2, KH: 3, KW: 3, Stride: 1, Pad: 0}, // 3x3 output
	}
	for _, s := range cases {
		in := tensor.RandomTensor4(s.Batch, s.InC, s.InH, s.InW, 41)
		w := tensor.RandomTensor4(s.OutC, s.InC, 3, 3, 42)
		got, err := Conv(in, w, s)
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		want := tensor.ConvRef(in, w, s)
		if d := maxAbsDiff(got.Data, want.Data); d > 1e-4 {
			t.Errorf("%v: winograd differs from direct by %g", s, d)
		}
	}
}

func TestConvRejectsBadInputs(t *testing.T) {
	s := tensor.ConvShape{Batch: 1, InC: 1, InH: 6, InW: 6, OutC: 1, KH: 3, KW: 3, Stride: 2, Pad: 0}
	in := tensor.NewTensor4(1, 1, 6, 6)
	w := tensor.NewTensor4(1, 1, 3, 3)
	if _, err := Conv(in, w, s); err == nil {
		t.Fatal("stride-2 accepted")
	}
	s.Stride = 1
	if _, err := Conv(tensor.NewTensor4(1, 2, 6, 6), w, s); err == nil {
		t.Fatal("mismatched input accepted")
	}
	if _, err := Conv(in, tensor.NewTensor4(1, 1, 5, 5), s); err == nil {
		t.Fatal("mismatched filter accepted")
	}
}

// Property: Winograd equals direct convolution for arbitrary stride-1 3×3
// shapes — the numerical-accuracy concern that makes libraries gate Winograd
// is bounded rounding, not wrong results.
func TestConvProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := tensor.ConvShape{
			Batch: int(seed%2) + 1,
			InC:   int(seed/2%4) + 1,
			InH:   int(seed/8%8) + 4,
			InW:   int(seed/64%8) + 4,
			OutC:  int(seed/512%4) + 1,
			KH:    3, KW: 3, Stride: 1,
			Pad: int(seed / 2048 % 2),
		}
		if !Applicable(s) {
			return true
		}
		in := tensor.RandomTensor4(s.Batch, s.InC, s.InH, s.InW, seed|1)
		w := tensor.RandomTensor4(s.OutC, s.InC, 3, 3, seed|2)
		got, err := Conv(in, w, s)
		if err != nil {
			return false
		}
		return maxAbsDiff(got.Data, tensor.ConvRef(in, w, s).Data) <= 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLower(t *testing.T) {
	s := tensor.ConvShape{Batch: 2, InC: 64, InH: 56, InW: 56, OutC: 128, KH: 3, KW: 3, Stride: 1, Pad: 1}
	l, err := Lower(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Count != 16 {
		t.Fatalf("Count = %d, want 16", l.Count)
	}
	// tiles = 2 × 28 × 28 = 1568.
	if l.Gemm.M != 1568 || l.Gemm.N != 128 || l.Gemm.K != 64 {
		t.Fatalf("Gemm = %v", l.Gemm)
	}
	if l.TransformBytes <= 0 {
		t.Fatal("transform traffic missing")
	}
	// The arithmetic saving: 16 GEMMs of tiles×OC×IC multiplies vs the
	// direct 36 per 4 outputs — ratio must be 36/16 = 2.25.
	winogradMuls := 16.0 * float64(l.Gemm.M) * float64(l.Gemm.N) * float64(l.Gemm.K)
	directMuls := s.GemmShape().FLOPs() / 2
	if ratio := directMuls / winogradMuls; ratio < 2.2 || ratio > 2.3 {
		t.Fatalf("arithmetic reduction = %.2f, want 2.25", ratio)
	}
	if _, err := Lower(tensor.ConvShape{}, 2); err == nil {
		t.Fatal("invalid shape accepted")
	}
}

// maxAbsDiff is the largest element-wise |a−b| of two compact buffers, +Inf
// when their lengths differ.
func maxAbsDiff(a, b []float32) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	var max float64
	for i := range a {
		max = math.Max(max, math.Abs(float64(a[i])-float64(b[i])))
	}
	return max
}
