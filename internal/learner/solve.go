package learner

import (
	"fmt"
	"math"
)

// RidgeClosed is a batch ridge regressor solved in closed form:
// w = (XᵀX + λI)⁻¹ Xᵀy via Gaussian elimination on the normal equations.
// It accumulates XᵀX and Xᵀy incrementally (so PartialFit stays O(d²) per
// example) and lazily re-solves when a prediction is requested after new
// data. Its fitted state is a sum over the example set, so it meets the
// Model order contract, and it gives experiments a deterministic
// regression target.
type RidgeClosed struct {
	dim    int
	lambda float64
	xtx    [][]float64 // (d+1)×(d+1), last row/col is the bias feature
	xty    []float64
	w      []float64
	dirty  bool
	seen   int
}

// NewRidgeClosed returns a closed-form ridge regressor over dim features
// with regularization strength lambda >= 0.
func NewRidgeClosed(dim int, lambda float64) *RidgeClosed {
	if dim <= 0 {
		panic("learner: RidgeClosed dim must be > 0")
	}
	if lambda < 0 {
		panic("learner: RidgeClosed lambda must be >= 0")
	}
	d := dim + 1
	m := &RidgeClosed{
		dim:    dim,
		lambda: lambda,
		xtx:    make([][]float64, d),
		xty:    make([]float64, d),
		w:      make([]float64, d),
	}
	for i := range m.xtx {
		m.xtx[i] = make([]float64, d)
	}
	return m
}

// PartialFit implements Model.
func (m *RidgeClosed) PartialFit(ex Example) {
	checkDim(m.dim, ex.Features, "RidgeClosed")
	x := ex.Features.Dense()
	x = append(x, 1) // bias feature
	for i := range x {
		if x[i] == 0 {
			continue
		}
		for j := range x {
			m.xtx[i][j] += x[i] * x[j]
		}
		m.xty[i] += x[i] * ex.Target
	}
	m.dirty = true
	m.seen++
}

// solve refreshes w from the accumulated normal equations.
func (m *RidgeClosed) solve() {
	d := m.dim + 1
	// Copy A = XtX + λI (bias unregularized) and b = Xty.
	a := make([][]float64, d)
	b := make([]float64, d)
	for i := 0; i < d; i++ {
		a[i] = make([]float64, d)
		copy(a[i], m.xtx[i])
		if i < m.dim {
			a[i][i] += m.lambda
		}
		b[i] = m.xty[i]
	}
	w, ok := SolveLinear(a, b)
	if !ok {
		// Singular system (e.g., no data yet): keep the previous weights,
		// falling back to zeros for a fresh model.
		m.dirty = false
		return
	}
	m.w = w
	m.dirty = false
}

// Predict implements Regressor.
func (m *RidgeClosed) Predict(v FeatureVector) float64 {
	checkDim(m.dim, v, "RidgeClosed")
	if m.dirty {
		m.solve()
	}
	return v.Dot(m.w[:m.dim]) + m.w[m.dim]
}

// Weights returns a copy of the current weight vector (bias last),
// solving first if needed.
func (m *RidgeClosed) Weights() []float64 {
	if m.dirty {
		m.solve()
	}
	out := make([]float64, len(m.w))
	copy(out, m.w)
	return out
}

// Seen implements Model.
func (m *RidgeClosed) Seen() int { return m.seen }

// SolveLinear solves A·x = b by Gaussian elimination with partial
// pivoting. It returns (x, true) on success or (nil, false) when A is
// singular to working precision. A and b are not modified. It panics on a
// non-square or mismatched system.
func SolveLinear(a [][]float64, b []float64) ([]float64, bool) {
	n := len(a)
	if n == 0 || len(b) != n {
		panic(fmt.Sprintf("learner: SolveLinear needs square system, got %dx? and b of %d", n, len(b)))
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range m {
		if len(a[i]) != n {
			panic("learner: SolveLinear matrix is not square")
		}
		m[i] = make([]float64, n)
		copy(m[i], a[i])
	}
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, false
		}
		m[col], m[pivot] = m[pivot], m[col]
		x[col], x[pivot] = x[pivot], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, true
}
