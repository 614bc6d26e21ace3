package tensor

import (
	"testing"
	"testing/quick"
)

func TestConvShapeOutDims(t *testing.T) {
	s := ConvShape{Batch: 1, InC: 3, InH: 224, InW: 224, OutC: 64, KH: 7, KW: 7, Stride: 2, Pad: 3}
	oh, ow := s.OutDims()
	if oh != 112 || ow != 112 {
		t.Fatalf("OutDims = %d,%d want 112,112", oh, ow)
	}
	if !s.Valid() {
		t.Fatal("shape should be valid")
	}
}

func TestConvShapeInvalid(t *testing.T) {
	s := ConvShape{Batch: 1, InC: 1, InH: 2, InW: 2, OutC: 1, KH: 5, KW: 5, Stride: 1, Pad: 0}
	if s.Valid() {
		t.Fatal("kernel larger than input without padding must be invalid")
	}
}

func TestConvShapeGemmLowering(t *testing.T) {
	s := ConvShape{Batch: 2, InC: 3, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}
	g := s.GemmShape()
	if g.M != 2*8*8 || g.N != 16 || g.K != 27 {
		t.Fatalf("GemmShape = %v", g)
	}
	if s.FLOPs() != g.FLOPs() {
		t.Fatal("FLOPs mismatch between conv and its GEMM lowering")
	}
}

// The central correctness property of the GEMM-based convolution path:
// im2col(input) × filterMatrix == direct convolution, for random shapes.
func TestIm2colGemmMatchesDirectConv(t *testing.T) {
	cases := []ConvShape{
		{Batch: 1, InC: 1, InH: 5, InW: 5, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 0},
		{Batch: 2, InC: 3, InH: 7, InW: 6, OutC: 4, KH: 3, KW: 3, Stride: 1, Pad: 1},
		{Batch: 1, InC: 2, InH: 9, InW: 9, OutC: 3, KH: 1, KW: 1, Stride: 1, Pad: 0},
		{Batch: 1, InC: 3, InH: 11, InW: 11, OutC: 2, KH: 5, KW: 5, Stride: 2, Pad: 2},
		{Batch: 3, InC: 1, InH: 8, InW: 8, OutC: 2, KH: 3, KW: 3, Stride: 2, Pad: 0},
	}
	for _, s := range cases {
		in := RandomTensor4(s.Batch, s.InC, s.InH, s.InW, 11)
		w := RandomTensor4(s.OutC, s.InC, s.KH, s.KW, 12)
		direct := ConvRef(in, w, s)
		lowered := Gemm(Im2col(in, s), FilterMatrix(w, s))
		back := GemmOutputToTensor(lowered, s)
		if d := Tensor4MaxAbsDiff(direct, back); d > 1e-4 {
			t.Errorf("%v: im2col path differs from direct conv by %g", s, d)
		}
	}
}

func TestIm2colGemmProperty(t *testing.T) {
	f := func(seed uint64) bool {
		s := ConvShape{
			Batch:  int(seed%2) + 1,
			InC:    int(seed/2%3) + 1,
			InH:    int(seed/6%5) + 4,
			InW:    int(seed/30%5) + 4,
			OutC:   int(seed/150%4) + 1,
			KH:     []int{1, 3}[seed/600%2],
			KW:     []int{1, 3}[seed/600%2],
			Stride: int(seed/1200%2) + 1,
			Pad:    int(seed / 2400 % 2),
		}
		if !s.Valid() {
			return true
		}
		in := RandomTensor4(s.Batch, s.InC, s.InH, s.InW, seed|1)
		w := RandomTensor4(s.OutC, s.InC, s.KH, s.KW, seed|2)
		direct := ConvRef(in, w, s)
		back := GemmOutputToTensor(Gemm(Im2col(in, s), FilterMatrix(w, s)), s)
		return Tensor4MaxAbsDiff(direct, back) <= 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2colShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := ConvShape{Batch: 1, InC: 2, InH: 4, InW: 4, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 0}
	Im2col(NewTensor4(1, 3, 4, 4), s)
}

func TestTensor4Basics(t *testing.T) {
	x := NewTensor4(2, 3, 4, 5)
	if x.Elems() != 120 {
		t.Fatalf("Elems = %d", x.Elems())
	}
	x.Set(1, 2, 3, 4, 7)
	if x.At(1, 2, 3, 4) != 7 {
		t.Fatal("Set/At roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	x.At(2, 0, 0, 0)
}
