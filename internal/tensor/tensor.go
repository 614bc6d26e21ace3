// Package tensor provides the dense float32 tensor substrate used throughout
// the MikPoly reproduction: row-major matrices and 4-D activation/filter
// tensors, reference GEMM and convolution implementations that serve as
// ground truth for correctness tests, and im2col lowering used by the
// GEMM-based convolution path (the paper's convolution implementation, §7).
package tensor

import (
	"fmt"
	"strings"
)

// Matrix is a dense row-major float32 matrix. The zero value is an empty
// matrix; use NewMatrix to allocate.
type Matrix struct {
	Rows, Cols int
	// Stride is the distance in elements between the starts of adjacent
	// rows. Stride >= Cols; a Matrix with Stride > Cols is a view into a
	// larger buffer.
	Stride int
	Data   []float32
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Stride: cols, Data: make([]float32, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 {
	m.check(i, j)
	return m.Data[i*m.Stride+j]
}

// Set stores v at element (i, j).
func (m *Matrix) Set(i, j int, v float32) {
	m.check(i, j)
	m.Data[i*m.Stride+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	return m.Data[i*m.Stride : i*m.Stride+m.Cols]
}

// ViewInto fills *dst with an r×c sub-matrix view starting at (i, j),
// sharing storage with m. It performs no allocation, so tight tile loops can
// reuse one Matrix header.
func (m *Matrix) ViewInto(dst *Matrix, i, j, r, c int) {
	if r < 0 || c < 0 || i < 0 || j < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("tensor: view (%d,%d,%d,%d) out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	dst.Rows, dst.Cols, dst.Stride = r, c, m.Stride
	dst.Data = m.Data[i*m.Stride+j:]
}

// String renders small matrices for debugging; large matrices are summarized.
func (m *Matrix) String() string {
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%dx%d)[", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", m.At(i, j))
		}
	}
	b.WriteByte(']')
	return b.String()
}

// Tensor4 is a dense NCHW float32 tensor (batch, channels, height, width),
// the activation layout used by the convolution suites of Table 4.
type Tensor4 struct {
	N, C, H, W int
	Data       []float32
}

// NewTensor4 allocates a zeroed NCHW tensor.
func NewTensor4(n, c, h, w int) *Tensor4 {
	if n < 0 || c < 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("tensor: invalid dims %d,%d,%d,%d", n, c, h, w))
	}
	return &Tensor4{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// At returns element (n, c, h, w).
func (t *Tensor4) At(n, c, h, w int) float32 {
	return t.Data[t.index(n, c, h, w)]
}

// Set stores v at element (n, c, h, w).
func (t *Tensor4) Set(n, c, h, w int, v float32) {
	t.Data[t.index(n, c, h, w)] = v
}

func (t *Tensor4) index(n, c, h, w int) int {
	if n < 0 || n >= t.N || c < 0 || c >= t.C || h < 0 || h >= t.H || w < 0 || w >= t.W {
		panic(fmt.Sprintf("tensor: index (%d,%d,%d,%d) out of range (%d,%d,%d,%d)", n, c, h, w, t.N, t.C, t.H, t.W))
	}
	return ((n*t.C+c)*t.H+h)*t.W + w
}
