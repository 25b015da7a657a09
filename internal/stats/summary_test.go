package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := Percentile(xs, 0); got != 1 {
		t.Fatalf("p0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 4 {
		t.Fatalf("p100 = %v", got)
	}
	if got := Median(xs); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("median = %v", got)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("Percentile mutated input")
	}
	if got := Percentile([]float64{7}, 40); got != 7 {
		t.Fatalf("single-element percentile = %v", got)
	}
	mustPanic(t, func() { Percentile(nil, 50) })
	mustPanic(t, func() { Percentile(xs, -1) })
	mustPanic(t, func() { Percentile(xs, 101) })
}

func TestBootstrapMeanCI(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 10 + r.NormFloat64()
	}
	lo, hi := BootstrapMeanCI(xs, 0.95, 500, r.Float64)
	if lo > hi {
		t.Fatalf("inverted CI [%v, %v]", lo, hi)
	}
	if lo > 10 || hi < 10 {
		t.Fatalf("CI [%v, %v] excludes true mean 10", lo, hi)
	}
	if hi-lo > 1 {
		t.Fatalf("CI [%v, %v] implausibly wide", lo, hi)
	}
	mustPanic(t, func() { BootstrapMeanCI(nil, 0.95, 10, r.Float64) })
	mustPanic(t, func() { BootstrapMeanCI(xs, 1.0, 10, r.Float64) })
	mustPanic(t, func() { BootstrapMeanCI(xs, 0.95, 0, r.Float64) })
}
