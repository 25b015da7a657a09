package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
	mustPanic(t, func() { Dot([]float64{1}, []float64{1, 2}) })
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
	mustPanic(t, func() { Axpy(1, []float64{1}, []float64{1, 2}) })
}

func TestAddSub(t *testing.T) {
	y := []float64{5, 5}
	Add([]float64{1, 2}, y)
	if y[0] != 6 || y[1] != 7 {
		t.Fatalf("Add gave %v", y)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, -4}
	if !almostEq(Norm2(x), 5) {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Norm2(nil) != 0 {
		t.Fatal("norm of empty vector should be 0")
	}
}

func TestSqDistMatchesDefinition(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(func(a, b [8]float64) bool {
		for i := range a {
			if math.IsNaN(a[i]) || math.IsInf(a[i], 0) || math.IsNaN(b[i]) || math.IsInf(b[i], 0) {
				return true
			}
			a[i] = math.Mod(a[i], 1000)
			b[i] = math.Mod(b[i], 1000)
		}
		d := SqDist(a[:], b[:])
		diff := make([]float64, 8)
		copy(diff, a[:])
		Axpy(-1, b[:], diff)
		n := Norm2(diff)
		return math.Abs(d-n*n) < 1e-6*(1+d)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestArgMaxMin(t *testing.T) {
	x := []float64{1, 5, 5, -2}
	if ArgMax(x) != 1 {
		t.Fatalf("ArgMax tie-break wrong: %d", ArgMax(x))
	}
	mustPanic(t, func() { ArgMax(nil) })
}

func TestNormalize(t *testing.T) {
	x := []float64{3, 4}
	n := Normalize(x)
	if !almostEq(n, 5) {
		t.Fatalf("returned norm %v", n)
	}
	if !almostEq(Norm2(x), 1) {
		t.Fatalf("normalized norm %v", Norm2(x))
	}
	z := []float64{0, 0}
	if Normalize(z) != 0 || z[0] != 0 {
		t.Fatal("zero vector should be unchanged")
	}
}

func TestCloneZeroScaleMeanSum(t *testing.T) {
	x := []float64{1, 2, 3}
	c := Clone(x)
	c[0] = 99
	if x[0] != 1 {
		t.Fatal("Clone aliases input")
	}
	Scale(2, x)
	if x[2] != 6 {
		t.Fatalf("Scale gave %v", x)
	}
	Zero(x)
	if x[0] != 0 || x[1] != 0 || x[2] != 0 {
		t.Fatal("Zero failed")
	}
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
