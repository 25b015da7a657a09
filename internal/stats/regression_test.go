package stats

import (
	"math"
	"math/rand"
	"testing"
)

// windowOf returns a window of the given capacity after adding ys.
func windowOf(capacity int, ys ...float64) *Window {
	w := NewWindow(capacity)
	for _, y := range ys {
		w.Add(y)
	}
	return w
}

// slopeCase is one row of a window-slope table.
type slopeCase struct {
	name string
	w    *Window
	want float64
}

func checkSlopes(t *testing.T, cases []slopeCase) {
	t.Helper()
	for _, tc := range cases {
		if got := tc.w.slope(); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: slope = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFitOLSExactLine checks the least-squares fit the plateau detector
// runs over its window recovers the slope of an exact line.
func TestFitOLSExactLine(t *testing.T) {
	checkSlopes(t, []slopeCase{
		{"exact line y=1+2x", windowOf(5, 1, 3, 5, 7, 9), 2},
		{"exact line y=3-x/2", windowOf(4, 3, 2.5, 2, 1.5), -0.5},
	})
}

// TestFitOLSDegenerate checks the fit's degenerate inputs: too few points
// for a slope, and a flat series.
func TestFitOLSDegenerate(t *testing.T) {
	checkSlopes(t, []slopeCase{
		{"empty", windowOf(4), 0},
		{"single point", windowOf(4, 5), 0},
		{"constant y", windowOf(3, 4, 4, 4), 0},
	})
}

func TestSlopeOverIndex(t *testing.T) {
	checkSlopes(t, []slopeCase{
		{"single point", windowOf(4, 5), 0},
		{"exact line y=2x", windowOf(4, 0, 2, 4, 6), 2},
		{"flat", windowOf(3, 9, 9, 9), 0},
		{"wrapped ring reads oldest first", windowOf(3, 7, -1, 0, 2, 4), 2},
		{"partly filled", windowOf(8, 3, 2, 1), -1},
	})
}

// olsSlope is the two-slice least-squares fit the window's slope replaced:
// mean(x), mean(y), then sxx and sxy in index order.
func olsSlope(y []float64) float64 {
	n := len(y)
	x := make([]float64, n)
	mx, my := 0.0, 0.0
	for i := range x {
		x[i] = float64(i)
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	sxx, sxy := 0.0, 0.0
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
	}
	return sxy / sxx
}

// TestSlopeMatchesTwoSliceFitBitForBit keeps every plateau decision of the
// slice-based fit: the in-place slope must agree to the last bit.
func TestSlopeMatchesTwoSliceFitBitForBit(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		w := NewWindow(2 + r.Intn(30))
		for i, adds := 0, 2+r.Intn(80); i < adds; i++ {
			w.Add(r.Float64())
			if i+1 >= 2 {
				if got, want := w.slope(), olsSlope(w.Values()); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: slope %v, two-slice fit %v", trial, got, want)
				}
			}
		}
	}
}

func TestPlateauDetectorFlatSeries(t *testing.T) {
	p := NewPlateauDetector(5, 0.01, 2)
	// Window not yet full: never plateaued.
	for i := 0; i < 4; i++ {
		if p.Observe(1.0) {
			t.Fatalf("plateaued before window full at obs %d", i)
		}
	}
	// 5th obs fills the window (hit 1), 6th gives hit 2 -> plateau.
	if p.Observe(1.0) {
		t.Fatal("plateaued before patience satisfied")
	}
	if !p.Observe(1.0) {
		t.Fatal("flat series should plateau after patience checks")
	}
}

func TestPlateauDetectorRisingSeriesNeverFires(t *testing.T) {
	p := NewPlateauDetector(5, 0.01, 1)
	for i := 0; i < 100; i++ {
		if p.Observe(float64(i) * 0.5) {
			t.Fatalf("rising series plateaued at obs %d", i)
		}
	}
}

func TestPlateauDetectorPatienceResets(t *testing.T) {
	p := NewPlateauDetector(4, 0.05, 3)
	// flat, flat, then a jump resets the patience counter
	seq := []float64{1, 1, 1, 1, 1, 5, 5, 5, 5}
	fired := -1
	for i, v := range seq {
		if p.Observe(v) {
			fired = i
			break
		}
	}
	if fired != -1 {
		t.Fatalf("plateau fired at %d despite jump resetting patience", fired)
	}
	// Now hold flat long enough: should eventually fire.
	for i := 0; i < 10; i++ {
		if p.Observe(5) {
			return
		}
	}
	t.Fatal("detector never fired on a long flat tail")
}

func TestPlateauDetectorPanics(t *testing.T) {
	mustPanic(t, func() { NewPlateauDetector(1, 0.1, 1) })
	mustPanic(t, func() { NewPlateauDetector(5, -0.1, 1) })
	mustPanic(t, func() { NewPlateauDetector(5, 0.1, 0) })
}
