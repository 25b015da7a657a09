package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSparseInvariants(t *testing.T) {
	s := NewSparse(10, []int{5, 2, 5, 8}, []float64{1, 2, 3, 0})
	// zero dropped, duplicates merged, indices sorted
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	if s.Idx[0] != 2 || s.Idx[1] != 5 {
		t.Fatalf("indices not sorted: %v", s.Idx)
	}
	if s.At(5) != 4 {
		t.Fatalf("duplicate merge: At(5) = %v, want 4", s.At(5))
	}
	if s.At(0) != 0 {
		t.Fatalf("missing index should be 0, got %v", s.At(0))
	}
	mustPanic(t, func() { NewSparse(10, []int{10}, []float64{1}) })
	mustPanic(t, func() { NewSparse(10, []int{-1}, []float64{1}) })
	mustPanic(t, func() { NewSparse(10, []int{1, 2}, []float64{1}) })
	mustPanic(t, func() { s.At(10) })
}

func TestNewSparseCancellation(t *testing.T) {
	s := NewSparse(4, []int{1, 1}, []float64{2, -2})
	if s.NNZ() != 0 {
		t.Fatalf("cancelled duplicates should be removed, NNZ=%d", s.NNZ())
	}
}

func TestSparseFromMap(t *testing.T) {
	s := SparseFromMap(6, map[int]float64{3: 1.5, 1: -2, 4: 0})
	if s.NNZ() != 2 || s.At(3) != 1.5 || s.At(1) != -2 {
		t.Fatalf("SparseFromMap wrong: idx=%v val=%v", s.Idx, s.Val)
	}
}

func TestSparseDenseRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(func(vals [12]float64) bool {
		d := make([]float64, 12)
		m := map[int]float64{}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			v = math.Mod(v, 100)
			d[i] = v
			if v != 0 {
				m[i] = v
			}
		}
		s := SparseFromMap(12, m)
		back := s.Dense()
		for i := range d {
			if back[i] != d[i] {
				return false
			}
		}
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDotsAgree(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(func(a, b [10]float64) bool {
		for i := range a {
			if bad(a[i]) || bad(b[i]) {
				return true
			}
			a[i] = math.Mod(a[i], 10)
			b[i] = math.Mod(b[i], 10)
		}
		sa := fromDense(a[:])
		sb := fromDense(b[:])
		want := Dot(a[:], b[:])
		if !close6(sa.DotDense(b[:]), want) {
			return false
		}
		return close6(sb.DotDense(a[:]), want)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSparseDimMismatchPanics(t *testing.T) {
	a := NewSparse(3, []int{0}, []float64{1})
	mustPanic(t, func() { a.DotDense([]float64{1, 2}) })
}

func fromDense(d []float64) *Sparse {
	m := map[int]float64{}
	for i, v := range d {
		if v != 0 {
			m[i] = v
		}
	}
	return SparseFromMap(len(d), m)
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func close6(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Abs(a)+math.Abs(b))
}
