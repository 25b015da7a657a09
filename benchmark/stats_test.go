package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	if got := median(xs); got != 5 {
		t.Errorf("median odd = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := percentile(xs, 25); got != 3 {
		t.Errorf("p25 = %v, want 3", got)
	}
	if got := percentile(xs, 90); !near(got, 8.2) {
		t.Errorf("p90 = %v, want 8.2 (interpolated between 7 and 9)", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if xs[0] != 9 {
		t.Error("helpers must not reorder their input")
	}
}

// The highest percentile reported must have at least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want int
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 50, true}, {39, 50, true}, {40, 75, true},
		{99, 75, true}, {100, 90, true}, {199, 90, true}, {200, 95, true},
		{999, 95, true}, {1000, 99, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d,%v, want %d,%v", c.n, got, ok, c.want, c.ok)
		}
		if ok && c.n*(100-got) < minBeyond*100 {
			t.Errorf("tailPercentile(%d) = %d leaves fewer than %d samples beyond", c.n, got, minBeyond)
		}
	}
}

// iqrShare must agree with Python's statistics.quantiles(values, n=4), the
// rule the acceptance check applies: for 1..10 the quartiles are 2.75, 5.5
// and 8.25, so the spread is 5.5/5.5.
func TestIQRShareMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := iqrShare(xs); !near(got, 1) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
	// quantiles([2.0, 2.1, 2.2, 2.4, 2.5, 2.6, 2.9, 3.0, 3.3, 3.4], n=4)
	// = [2.175, 2.55, 3.075]
	ys := []float64{2.0, 2.1, 2.2, 2.4, 2.5, 2.6, 2.9, 3.0, 3.3, 3.4}
	if got, want := iqrShare(ys), (3.075-2.175)/2.55; !near(got, want) {
		t.Errorf("iqrShare = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{3}); got != 0 {
		t.Errorf("iqrShare of one value = %v, want 0", got)
	}
}
