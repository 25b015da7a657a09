package learner

import (
	"math"
	"testing"

	"zombie/internal/rng"
)

func TestSolveLinearKnownSystem(t *testing.T) {
	a := [][]float64{
		{2, 1},
		{1, 3},
	}
	b := []float64{5, 10}
	x, ok := SolveLinear(a, b)
	if !ok {
		t.Fatal("solver reported singular")
	}
	// 2x+y=5, x+3y=10 -> x=1, y=3
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
	// Inputs must be untouched.
	if a[0][0] != 2 || b[0] != 5 {
		t.Fatal("SolveLinear mutated inputs")
	}
}

func TestSolveLinearNeedsPivoting(t *testing.T) {
	// Zero on the diagonal forces a row swap.
	a := [][]float64{
		{0, 1},
		{1, 0},
	}
	x, ok := SolveLinear(a, []float64{2, 3})
	if !ok || math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("pivoting solve failed: %v ok=%v", x, ok)
	}
}

func TestSolveLinearSingular(t *testing.T) {
	a := [][]float64{
		{1, 2},
		{2, 4},
	}
	if _, ok := SolveLinear(a, []float64{1, 2}); ok {
		t.Fatal("singular system reported solvable")
	}
}

func TestSolveLinearValidation(t *testing.T) {
	mustPanic(t, "empty", func() { SolveLinear(nil, nil) })
	mustPanic(t, "not square", func() { SolveLinear([][]float64{{1, 2}}, []float64{1}) })
	mustPanic(t, "b mismatch", func() { SolveLinear([][]float64{{1}}, []float64{1, 2}) })
}

func TestSolveLinearRandomSystems(t *testing.T) {
	r := rng.New(20)
	for trial := 0; trial < 50; trial++ {
		n := r.IntRange(1, 8)
		a := make([][]float64, n)
		xTrue := make([]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = r.Range(-5, 5)
			}
			a[i][i] += 10 // diagonally dominant: well-conditioned
			xTrue[i] = r.Range(-3, 3)
		}
		b := make([]float64, n)
		for i := range b {
			for j := range xTrue {
				b[i] += a[i][j] * xTrue[j]
			}
		}
		x, ok := SolveLinear(a, b)
		if !ok {
			t.Fatalf("trial %d: well-conditioned system reported singular", trial)
		}
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-6 {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, x[i], xTrue[i])
			}
		}
	}
}

func TestRidgeClosedRecoversLine(t *testing.T) {
	r := rng.New(21)
	m := NewRidgeClosed(2, 1e-6)
	for i := 0; i < 500; i++ {
		x := []float64{r.Range(-1, 1), r.Range(-1, 1)}
		y := 3*x[0] - 2*x[1] + 0.5
		m.PartialFit(Example{Features: DenseVec(x), Target: y})
	}
	w := m.Weights()
	if math.Abs(w[0]-3) > 1e-6 || math.Abs(w[1]+2) > 1e-6 || math.Abs(w[2]-0.5) > 1e-6 {
		t.Fatalf("weights = %v", w)
	}
	if got := m.Predict(DenseVec([]float64{1, 1})); math.Abs(got-1.5) > 1e-6 {
		t.Fatalf("Predict = %v", got)
	}
}

func TestRidgeClosedRegularizationShrinks(t *testing.T) {
	r := rng.New(22)
	weak := NewRidgeClosed(1, 1e-9)
	strong := NewRidgeClosed(1, 100)
	for i := 0; i < 100; i++ {
		x := r.Range(-1, 1)
		ex := Example{Features: DenseVec([]float64{x}), Target: 5 * x}
		weak.PartialFit(ex)
		strong.PartialFit(ex)
	}
	if math.Abs(strong.Weights()[0]) >= math.Abs(weak.Weights()[0]) {
		t.Fatalf("lambda=100 weight %v not shrunk vs %v", strong.Weights()[0], weak.Weights()[0])
	}
}

func TestRidgeClosedUntrained(t *testing.T) {
	m := NewRidgeClosed(2, 1)
	// Singular normal equations: prediction falls back to zero weights.
	if got := m.Predict(DenseVec([]float64{1, 1})); got != 0 {
		t.Fatalf("untrained Predict = %v", got)
	}
	if m.Seen() != 0 {
		t.Fatal("Seen != 0")
	}
}

func TestRidgeClosedValidation(t *testing.T) {
	mustPanic(t, "dim", func() { NewRidgeClosed(0, 1) })
	mustPanic(t, "lambda", func() { NewRidgeClosed(1, -1) })
}
