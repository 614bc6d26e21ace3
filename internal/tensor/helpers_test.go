package tensor

import (
	"fmt"
	"math"
)

// Helpers only the tests use.

// FromRows builds a matrix from a slice of rows. All rows must have equal
// length.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d: got %d want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Stride:i*m.Stride+m.Cols], r)
	}
	return m
}

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float32) {
	m.check(i, j)
	m.Data[i*m.Stride+j] += v
}

// View returns an r×c sub-matrix starting at (i, j) that shares storage with
// m. Mutations through the view are visible in m.
func (m *Matrix) View(i, j, r, c int) *Matrix {
	if r < 0 || c < 0 || i < 0 || j < 0 || i+r > m.Rows || j+c > m.Cols {
		panic(fmt.Sprintf("tensor: view (%d,%d,%d,%d) out of range %dx%d", i, j, r, c, m.Rows, m.Cols))
	}
	return &Matrix{Rows: r, Cols: c, Stride: m.Stride, Data: m.Data[i*m.Stride+j:]}
}

// Clone returns a compact deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// Zero clears all elements.
func (m *Matrix) Zero() {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = v
		}
	}
}

// PadTo returns a copy of m zero-padded to rows×cols (each at least the
// current dimension): the local padding (§3.4) TestGemmPaddingProperty
// checks GEMM is invariant under.
func (m *Matrix) PadTo(rows, cols int) *Matrix {
	if rows < m.Rows || cols < m.Cols {
		panic(fmt.Sprintf("tensor: PadTo(%d,%d) smaller than %dx%d", rows, cols, m.Rows, m.Cols))
	}
	out := NewMatrix(rows, cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i)[:m.Cols], m.Row(i))
	}
	return out
}

// Elems reports the number of elements.
func (t *Tensor4) Elems() int { return t.N * t.C * t.H * t.W }

// Transpose returns a compact copy of mᵀ. Frameworks commonly store linear
// layer weights transposed; the runtime materializes the layout the
// micro-kernels expect.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// MaxAbsDiff returns the largest element-wise absolute difference between two
// equally shaped matrices.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: compare shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	var max float64
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			d := math.Abs(float64(ra[j]) - float64(rb[j]))
			if d > max {
				max = d
			}
		}
	}
	return max
}

// Tensor4MaxAbsDiff returns the largest element-wise absolute difference
// between two equally shaped NCHW tensors.
func Tensor4MaxAbsDiff(a, b *Tensor4) float64 {
	if a.N != b.N || a.C != b.C || a.H != b.H || a.W != b.W {
		panic(fmt.Sprintf("tensor: compare shape mismatch (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.N, a.C, a.H, a.W, b.N, b.C, b.H, b.W))
	}
	var max float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// FLOPs returns the multiply-add operation count of the convolution.
func (c ConvShape) FLOPs() float64 { return c.GemmShape().FLOPs() }
