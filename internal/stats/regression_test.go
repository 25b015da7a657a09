package stats

import (
	"math"
	"testing"
)

func TestFitOLSExactLine(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3, 5, 7, 9} // y = 1 + 2x
	fit := FitOLS(x, y)
	if math.Abs(fit.Slope-2) > 1e-12 || math.Abs(fit.Intercept-1) > 1e-12 {
		t.Fatalf("fit = %+v", fit)
	}
	if math.Abs(fit.R2-1) > 1e-12 {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestFitOLSDegenerate(t *testing.T) {
	if fit := FitOLS(nil, nil); fit.Slope != 0 || fit.N != 0 {
		t.Fatalf("empty fit = %+v", fit)
	}
	if fit := FitOLS([]float64{2}, []float64{5}); fit.Intercept != 5 || fit.Slope != 0 {
		t.Fatalf("single-point fit = %+v", fit)
	}
	// Constant x: slope undefined, returns 0 with mean intercept.
	fit := FitOLS([]float64{3, 3, 3}, []float64{1, 2, 3})
	if fit.Slope != 0 || math.Abs(fit.Intercept-2) > 1e-12 {
		t.Fatalf("constant-x fit = %+v", fit)
	}
	// Constant y: flat series, R2 defined as 1.
	fit = FitOLS([]float64{1, 2, 3}, []float64{4, 4, 4})
	if fit.Slope != 0 || fit.R2 != 1 {
		t.Fatalf("constant-y fit = %+v", fit)
	}
	mustPanic(t, func() { FitOLS([]float64{1}, []float64{1, 2}) })
}

func TestSlopeOverIndex(t *testing.T) {
	if s := SlopeOverIndex([]float64{5}); s != 0 {
		t.Fatalf("single-point slope = %v", s)
	}
	if s := SlopeOverIndex([]float64{0, 2, 4, 6}); math.Abs(s-2) > 1e-12 {
		t.Fatalf("slope = %v, want 2", s)
	}
	if s := SlopeOverIndex([]float64{9, 9, 9}); s != 0 {
		t.Fatalf("flat slope = %v", s)
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
	if p.Observations() != 6 {
		t.Fatalf("Observations = %d", p.Observations())
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
