// Package stats provides the online-statistics substrate used across the
// Zombie system: Welford accumulators, fixed-size sliding windows,
// percentiles, ordinary least squares over short series (the
// early-stopping plateau detector is built on the OLS slope), and
// bootstrap confidence intervals for the experiment harness.
//
// All types are plain values with no goroutine-safety guarantees; callers
// that share them across goroutines must synchronize externally. The
// Zombie inner loop is single-threaded by design (the paper's system
// processes one input at a time so reward attribution stays exact), so
// this is the common case.
package stats

import "math"

// Online accumulates count, mean and variance in a single pass using
// Welford's algorithm, which stays numerically stable for long streams.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	delta := x - o.mean
	o.mean += delta / float64(o.n)
	o.m2 += delta * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the running mean, or 0 before any observation.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the sample standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// Min returns the smallest observation, or 0 before any observation.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation, or 0 before any observation.
func (o *Online) Max() float64 { return o.max }

// Sum returns mean*n; exact enough for reporting.
func (o *Online) Sum() float64 { return o.mean * float64(o.n) }

// Merge folds another accumulator into this one (parallel Welford merge).
func (o *Online) Merge(b *Online) {
	if b.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *b
		return
	}
	n := o.n + b.n
	delta := b.mean - o.mean
	mean := o.mean + delta*float64(b.n)/float64(n)
	m2 := o.m2 + b.m2 + delta*delta*float64(o.n)*float64(b.n)/float64(n)
	if b.min < o.min {
		o.min = b.min
	}
	if b.max > o.max {
		o.max = b.max
	}
	o.n, o.mean, o.m2 = n, mean, m2
}

// Counter is a simple monotone event counter with a rate helper, used by
// the trace layer.
type Counter struct {
	n int64
}

// Inc adds one event.
func (c *Counter) Inc() { c.n++ }

// Count returns the total.
func (c *Counter) Count() int64 { return c.n }
