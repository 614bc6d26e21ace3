package tensor

import "math"

// AllClose reports whether all elements agree within tol absolute or
// tol relative error (whichever is looser), the usual mixed tolerance for
// float32 GEMM with different summation orders.
func AllClose(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			x, y := float64(ra[j]), float64(rb[j])
			d := math.Abs(x - y)
			if d <= tol {
				continue
			}
			scale := math.Max(math.Abs(x), math.Abs(y))
			if d > tol*scale {
				return false
			}
		}
	}
	return true
}
