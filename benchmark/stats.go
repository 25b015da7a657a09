package main

import (
	"math"
	"sort"
)

// The benchmark keeps its own arithmetic rather than calling the program's
// internal/stats: a change to the program under test must not be able to
// move the yardstick. These also read an empty sample as 0 where the
// program's helpers panic, since a pass whose ops all failed still reports.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []int{50, 75, 90, 95, 99}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of the ladder that has at
// least minBeyond of n samples beyond it, and false when even the median
// does not (n < 20).
func tailPercentile(n int) (int, bool) {
	best, ok := 0, false
	for _, p := range tailLadder {
		if n*(100-p) >= minBeyond*100 {
			best, ok = p, true
		}
	}
	return best, ok
}

// iqrShare is the distance between the first and third quartile as a share
// of the median: the spread rule the acceptance check applies to ten runs.
// Quartiles use the exclusive method, as Python's statistics.quantiles does.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	q := func(k float64) float64 {
		pos := k * float64(len(s)+1) / 4
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
