// Package stats provides the streaming statistics the Zombie inner loop
// reads: a fixed-size sliding window (the windowed bandit estimators) and
// the early-stopping plateau detector, which regresses the recent quality
// curve against step number.
//
// All types are plain values with no goroutine-safety guarantees; callers
// that share them across goroutines must synchronize externally. The
// Zombie inner loop is single-threaded by design (the paper's system
// processes one input at a time so reward attribution stays exact), so
// this is the common case.
package stats

import "math"

// slope fits the stored values, oldest first, against their index 0..n-1
// by least squares and returns the slope (0 with fewer than two values).
// The sums run in index order, so the result does not depend on where
// the ring buffer starts.
func (w *Window) slope() float64 {
	n := w.count
	if n < 2 {
		return 0
	}
	mx := float64(n-1) / 2 // the mean of 0..n-1, exact in float64
	my := 0.0
	for i := 0; i < n; i++ {
		my += w.at(i)
	}
	my /= float64(n)
	sxx, sxy := 0.0, 0.0
	for i := 0; i < n; i++ {
		dx := float64(i) - mx
		sxx += dx * dx
		sxy += dx * (w.at(i) - my)
	}
	return sxy / sxx
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
	if !p.win.Full() {
		p.hits = 0
		return false
	}
	if math.Abs(p.win.slope()) < p.threshold {
		p.hits++
	} else {
		p.hits = 0
	}
	return p.Plateaued()
}

// Plateaued reports whether the series has been flat for at least
// `patience` consecutive full-window checks.
func (p *PlateauDetector) Plateaued() bool { return p.hits >= p.patience }
