package tensor

import "fmt"

// ConvShape describes a 2-D convolution problem in the terms of Table 4:
// Batch×InC×InH×InW input, OutC filters of KH×KW, with stride and symmetric
// padding. The batch size, resolution and channel counts are the dynamic
// dimensions in the paper's convolution suites.
type ConvShape struct {
	Batch    int
	InC      int
	InH, InW int
	OutC     int
	KH, KW   int
	Stride   int
	Pad      int
}

// Valid reports whether the shape describes a non-empty convolution.
func (c ConvShape) Valid() bool {
	if c.Stride <= 0 || c.Pad < 0 {
		return false
	}
	oh, ow := c.OutDims()
	return c.Batch > 0 && c.InC > 0 && c.OutC > 0 && c.KH > 0 && c.KW > 0 &&
		oh > 0 && ow > 0
}

// OutDims returns the spatial output size (OH, OW). The stride must be
// positive (Valid checks this before dividing).
func (c ConvShape) OutDims() (int, int) {
	oh := (c.InH+2*c.Pad-c.KH)/c.Stride + 1
	ow := (c.InW+2*c.Pad-c.KW)/c.Stride + 1
	return oh, ow
}

// GemmShape returns the implicit-GEMM lowering of the convolution:
// M = Batch·OH·OW, N = OutC, K = InC·KH·KW. This is the GEMM the paper's
// convolution path executes (§5.1: "we switch to GEMM for convolution").
func (c ConvShape) GemmShape() GemmShape {
	oh, ow := c.OutDims()
	return GemmShape{M: c.Batch * oh * ow, N: c.OutC, K: c.InC * c.KH * c.KW}
}

// String formats the shape compactly.
func (c ConvShape) String() string {
	return fmt.Sprintf("conv(n=%d c=%d %dx%d oc=%d k=%dx%d s=%d p=%d)",
		c.Batch, c.InC, c.InH, c.InW, c.OutC, c.KH, c.KW, c.Stride, c.Pad)
}

// Im2col lowers input activations to the matrix whose product with the
// flattened filter bank yields the convolution output. The result is
// M×K with M = Batch·OH·OW and K = InC·KH·KW; out-of-bounds taps
// contribute zeros (implicit padding).
func Im2col(in *Tensor4, shape ConvShape) *Matrix {
	if in.N != shape.Batch || in.C != shape.InC || in.H != shape.InH || in.W != shape.InW {
		panic(fmt.Sprintf("tensor: im2col input %dx%dx%dx%d does not match %v",
			in.N, in.C, in.H, in.W, shape))
	}
	oh, ow := shape.OutDims()
	g := shape.GemmShape()
	out := NewMatrix(g.M, g.K)
	for n := 0; n < shape.Batch; n++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := out.Row((n*oh+oy)*ow + ox)
				col := 0
				for c := 0; c < shape.InC; c++ {
					for ky := 0; ky < shape.KH; ky++ {
						iy := oy*shape.Stride + ky - shape.Pad
						for kx := 0; kx < shape.KW; kx++ {
							ix := ox*shape.Stride + kx - shape.Pad
							if iy >= 0 && iy < shape.InH && ix >= 0 && ix < shape.InW {
								row[col] = in.At(n, c, iy, ix)
							}
							col++
						}
					}
				}
			}
		}
	}
	return out
}

// FilterMatrix flattens an OutC×InC×KH×KW filter bank into the K×N matrix
// (K = InC·KH·KW, N = OutC) used by the implicit-GEMM lowering.
func FilterMatrix(w *Tensor4, shape ConvShape) *Matrix {
	if w.N != shape.OutC || w.C != shape.InC || w.H != shape.KH || w.W != shape.KW {
		panic(fmt.Sprintf("tensor: filter %dx%dx%dx%d does not match %v", w.N, w.C, w.H, w.W, shape))
	}
	g := shape.GemmShape()
	out := NewMatrix(g.K, g.N)
	for oc := 0; oc < shape.OutC; oc++ {
		k := 0
		for c := 0; c < shape.InC; c++ {
			for ky := 0; ky < shape.KH; ky++ {
				for kx := 0; kx < shape.KW; kx++ {
					out.Set(k, oc, w.At(oc, c, ky, kx))
					k++
				}
			}
		}
	}
	return out
}

// ConvRef computes the convolution directly (no GEMM lowering); it is the
// ground truth for the im2col path. The result is Batch×OutC×OH×OW.
func ConvRef(in, w *Tensor4, shape ConvShape) *Tensor4 {
	oh, ow := shape.OutDims()
	out := NewTensor4(shape.Batch, shape.OutC, oh, ow)
	for n := 0; n < shape.Batch; n++ {
		for oc := 0; oc < shape.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for c := 0; c < shape.InC; c++ {
						for ky := 0; ky < shape.KH; ky++ {
							iy := oy*shape.Stride + ky - shape.Pad
							if iy < 0 || iy >= shape.InH {
								continue
							}
							for kx := 0; kx < shape.KW; kx++ {
								ix := ox*shape.Stride + kx - shape.Pad
								if ix < 0 || ix >= shape.InW {
									continue
								}
								acc += in.At(n, c, iy, ix) * w.At(oc, c, ky, kx)
							}
						}
					}
					out.Set(n, oc, oy, ox, acc)
				}
			}
		}
	}
	return out
}

// GemmOutputToTensor reshapes the M×N implicit-GEMM output (rows ordered
// n, oy, ox; columns are output channels) back to Batch×OutC×OH×OW.
func GemmOutputToTensor(m *Matrix, shape ConvShape) *Tensor4 {
	oh, ow := shape.OutDims()
	g := shape.GemmShape()
	if m.Rows != g.M || m.Cols != g.N {
		panic(fmt.Sprintf("tensor: gemm output %dx%d does not match %v", m.Rows, m.Cols, shape))
	}
	out := NewTensor4(shape.Batch, shape.OutC, oh, ow)
	for n := 0; n < shape.Batch; n++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := m.Row((n*oh+oy)*ow + ox)
				for oc := 0; oc < shape.OutC; oc++ {
					out.Set(n, oc, oy, ox, row[oc])
				}
			}
		}
	}
	return out
}
