package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between order statistics. It panics on an empty slice or a
// p outside [0, 100]. The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		panic("stats: Percentile on empty slice")
	}
	if p < 0 || p > 100 {
		panic("stats: Percentile p must be in [0,100]")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return s[lo]
	}
	frac := rank - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// BootstrapMeanCI returns a two-sided bootstrap confidence interval for the
// mean of xs at the given confidence level (e.g., 0.95), using the supplied
// deterministic uniform source. resamples controls the number of bootstrap
// replicates. It panics on an empty input, a confidence outside (0,1), or
// non-positive resamples.
func BootstrapMeanCI(xs []float64, confidence float64, resamples int, uniform func() float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: BootstrapMeanCI on empty slice")
	}
	if confidence <= 0 || confidence >= 1 {
		panic("stats: BootstrapMeanCI confidence must be in (0,1)")
	}
	if resamples <= 0 {
		panic("stats: BootstrapMeanCI resamples must be positive")
	}
	means := make([]float64, resamples)
	for r := 0; r < resamples; r++ {
		s := 0.0
		for i := 0; i < len(xs); i++ {
			s += xs[int(uniform()*float64(len(xs)))%len(xs)]
		}
		means[r] = s / float64(len(xs))
	}
	alpha := (1 - confidence) / 2
	return Percentile(means, 100*alpha), Percentile(means, 100*(1-alpha))
}
