// Package perfmodel implements the micro-kernel performance models of
// MikPoly §3.3: for each fixed-size micro-kernel K̃, the offline stage learns
// a piecewise-linear function g_predict(t) estimating the cost of a
// pipelined task with t kernel instances on a single PE. The function is
// fitted to measurements (simulated runs in this reproduction, hardware runs
// in the paper) taken at a logarithmic grid of t values up to n_pred.
package perfmodel

import (
	"fmt"
	"math"
	"sort"
)

// Model is a fitted piecewise-linear cost function over the instance count t.
type Model struct {
	// xs are the knot positions (t values) in strictly increasing order;
	// ys are the measured costs at those knots.
	xs []float64
	ys []float64
}

// SampleGrid returns the t values at which measurements are taken:
// dense at the start (1..8) where pipeline fill dominates, then geometric
// up to maxT (the paper's n_pred, 5120 by default).
func SampleGrid(maxT int) []int {
	if maxT < 1 {
		panic(fmt.Sprintf("perfmodel: maxT must be >= 1, got %d", maxT))
	}
	var grid []int
	for t := 1; t <= 8 && t <= maxT; t++ {
		grid = append(grid, t)
	}
	for t := 12; t <= maxT; t = t * 3 / 2 {
		grid = append(grid, t)
	}
	if grid[len(grid)-1] != maxT {
		grid = append(grid, maxT)
	}
	return grid
}

// Fit learns a model by measuring the cost at the sample grid. measure must
// return the cost (in cycles) of a pipelined task with the given instance
// count.
func Fit(measure func(t int) float64, maxT int) *Model {
	grid := SampleGrid(maxT)
	m := &Model{xs: make([]float64, len(grid)), ys: make([]float64, len(grid))}
	for i, t := range grid {
		c := measure(t)
		if math.IsNaN(c) || c < 0 {
			panic(fmt.Sprintf("perfmodel: invalid measurement %g at t=%d", c, t))
		}
		m.xs[i] = float64(t)
		m.ys[i] = c
	}
	return m
}

// Predict evaluates g_predict(t): linear interpolation between knots, and
// linear extrapolation of the final segment beyond n_pred.
func (m *Model) Predict(t int) float64 {
	if t < 1 {
		panic(fmt.Sprintf("perfmodel: Predict needs t >= 1, got %d", t))
	}
	x := float64(t)
	n := len(m.xs)
	if n == 1 {
		return m.ys[0]
	}
	if x <= m.xs[0] {
		return m.ys[0]
	}
	// Find the segment [xs[i-1], xs[i]] containing x.
	i := sort.SearchFloat64s(m.xs, x)
	if i >= n {
		i = n - 1 // extrapolate the last segment
	}
	x0, x1 := m.xs[i-1], m.xs[i]
	y0, y1 := m.ys[i-1], m.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}
