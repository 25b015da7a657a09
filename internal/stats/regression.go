package stats

import "math"

// OLS holds the result of a simple ordinary-least-squares fit y = a + b*x.
type OLS struct {
	Intercept float64
	Slope     float64
	R2        float64
	N         int
}

// FitOLS fits y = a + b*x by least squares. It returns a zero-slope fit
// when fewer than two points are supplied or x is constant.
func FitOLS(x, y []float64) OLS {
	if len(x) != len(y) {
		panic("stats: FitOLS length mismatch")
	}
	n := len(x)
	if n < 2 {
		fit := OLS{N: n}
		if n == 1 {
			fit.Intercept = y[0]
		}
		return fit
	}
	mx, my := mean(x), mean(y)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return OLS{Intercept: my, N: n}
	}
	b := sxy / sxx
	a := my - b*mx
	r2 := 0.0
	if syy > 0 {
		r2 = (sxy * sxy) / (sxx * syy)
	} else {
		r2 = 1 // perfectly flat series is perfectly explained
	}
	return OLS{Intercept: a, Slope: b, R2: r2, N: n}
}

// SlopeOverIndex fits y against its own index 0..n-1 and returns the slope.
// This is the primitive the plateau detector uses: the recent quality
// series is regressed against step number; a slope near zero means the
// learning curve has flattened.
func SlopeOverIndex(y []float64) float64 {
	if len(y) < 2 {
		return 0
	}
	x := make([]float64, len(y))
	for i := range x {
		x[i] = float64(i)
	}
	return FitOLS(x, y).Slope
}

func mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// PlateauDetector watches a quality series and reports when it has
// flattened. It keeps the last Window observations; once the window is
// full, Plateaued reports true when the absolute per-observation OLS slope
// stays below Threshold for Patience consecutive checks. Patience > 1
// guards against a momentarily flat curve that is about to climb again
// (common right after the bandit switches to a fresh group).
type PlateauDetector struct {
	win       *Window
	threshold float64
	patience  int
	hits      int
	checks    int
}

// NewPlateauDetector returns a detector over a window of the given size.
// threshold is the absolute slope (quality units per observation) below
// which the curve counts as flat; patience is how many consecutive flat
// checks are required. It panics on non-positive window or patience, or a
// negative threshold.
func NewPlateauDetector(window int, threshold float64, patience int) *PlateauDetector {
	if window < 2 {
		panic("stats: PlateauDetector window must be >= 2")
	}
	if threshold < 0 {
		panic("stats: PlateauDetector threshold must be >= 0")
	}
	if patience < 1 {
		panic("stats: PlateauDetector patience must be >= 1")
	}
	return &PlateauDetector{win: NewWindow(window), threshold: threshold, patience: patience}
}

// Observe folds a quality sample into the detector and returns the current
// plateau verdict (equivalent to calling Plateaued after).
func (p *PlateauDetector) Observe(quality float64) bool {
	p.win.Add(quality)
	p.checks++
	if !p.win.Full() {
		p.hits = 0
		return false
	}
	if math.Abs(SlopeOverIndex(p.win.Values())) < p.threshold {
		p.hits++
	} else {
		p.hits = 0
	}
	return p.Plateaued()
}

// Plateaued reports whether the series has been flat for at least
// `patience` consecutive full-window checks.
func (p *PlateauDetector) Plateaued() bool { return p.hits >= p.patience }

// Slope returns the OLS slope over the current window contents (0 until at
// least two samples arrive).
func (p *PlateauDetector) Slope() float64 {
	return SlopeOverIndex(p.win.Values())
}

// Observations returns the number of samples observed so far.
func (p *PlateauDetector) Observations() int { return p.checks }
