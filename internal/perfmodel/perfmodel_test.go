package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSampleGrid(t *testing.T) {
	g := SampleGrid(5120)
	if g[0] != 1 {
		t.Fatal("grid must start at 1")
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not strictly increasing at %d: %v", i, g)
		}
	}
	if g[len(g)-1] != 5120 {
		t.Fatalf("grid must end at maxT, got %d", g[len(g)-1])
	}
	if len(g) > 40 {
		t.Fatalf("grid too dense: %d points", len(g))
	}
}

func TestSampleGridSmall(t *testing.T) {
	g := SampleGrid(1)
	if len(g) != 1 || g[0] != 1 {
		t.Fatalf("SampleGrid(1) = %v", g)
	}
	g = SampleGrid(3)
	if g[len(g)-1] != 3 {
		t.Fatalf("SampleGrid(3) = %v", g)
	}
}

func TestSampleGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SampleGrid(0)
}

func TestFitExactLinear(t *testing.T) {
	// A linear cost is reproduced exactly at every t, including between
	// knots and beyond the grid.
	m := Fit(func(t int) float64 { return 100 + 7*float64(t) }, 1000)
	for _, tt := range []int{1, 2, 5, 9, 17, 33, 999, 1000, 4096} {
		want := 100 + 7*float64(tt)
		if got := m.Predict(tt); math.Abs(got-want) > 1e-6 {
			t.Fatalf("Predict(%d) = %g, want %g", tt, got, want)
		}
	}
}

func TestFitPiecewiseMax(t *testing.T) {
	// cost = startup + max(compute·t, mem·t + store): piecewise linear
	// with a crossover; the fit should be close everywhere.
	cost := func(t int) float64 {
		x := float64(t)
		return 50 + math.Max(3*x, 1.5*x+400)
	}
	m := Fit(cost, 2048)
	for tt := 1; tt <= 2048; tt += 13 {
		want := cost(tt)
		got := m.Predict(tt)
		if math.Abs(got-want)/want > 0.05 {
			t.Fatalf("Predict(%d) = %g, want %g (>5%% off)", tt, got, want)
		}
	}
}

func TestPredictBelowFirstKnot(t *testing.T) {
	m := Fit(func(t int) float64 { return float64(t) }, 100)
	if got := m.Predict(1); got != 1 {
		t.Fatalf("Predict(1) = %g", got)
	}
}

func TestPredictPanicsOnZero(t *testing.T) {
	m := Fit(func(t int) float64 { return float64(t) }, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Predict(0)
}

func TestFitRejectsInvalidMeasurement(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Fit(func(t int) float64 { return math.NaN() }, 10)
}

func TestKnotsAndMaxT(t *testing.T) {
	m := Fit(func(t int) float64 { return float64(t) }, 512)
	if m.Knots() < 10 {
		t.Fatalf("too few knots: %d", m.Knots())
	}
	if m.MaxT() != 512 {
		t.Fatalf("MaxT = %d", m.MaxT())
	}
}

// Property: for any monotone cost function, prediction is monotone in t and
// exact at every knot.
func TestFitMonotoneProperty(t *testing.T) {
	f := func(a, b uint8) bool {
		slope := float64(a%50) + 0.5
		base := float64(b % 200)
		cost := func(t int) float64 { return base + slope*math.Sqrt(float64(t))*10 + slope*float64(t) }
		m := Fit(cost, 640)
		prev := m.Predict(1)
		for tt := 2; tt <= 700; tt += 7 {
			cur := m.Predict(tt)
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
		}
		for _, knot := range SampleGrid(640) {
			if math.Abs(m.Predict(knot)-cost(knot)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Knots reports the number of fitted knots (for diagnostics).
func (m *Model) Knots() int { return len(m.xs) }

// MaxT reports the largest fitted t.
func (m *Model) MaxT() int { return int(m.xs[len(m.xs)-1]) }
