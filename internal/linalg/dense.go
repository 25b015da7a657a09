// Package linalg provides the small dense- and sparse-vector algebra that
// the learners and the indexing layer are built on.
//
// Everything here is deliberately allocation-conscious: the Zombie inner
// loop performs one learner update per raw input processed, so the hot
// operations (Dot, Axpy, Scale) write into caller-provided storage and
// never allocate. The package has no dependencies beyond math.
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b. It panics if the lengths
// differ, since a silent truncation would corrupt a model.
//
// The loop is 4-way unrolled into a SINGLE sequential accumulator: the
// additions happen in exactly the same order as the plain range loop, so
// the result is bit-identical — splitting into partial sums would
// reassociate floating-point adds and silently change every committed
// curve.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)] // hoist the bounds check out of the loop
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s += a[i] * b[i]
		s += a[i+1] * b[i+1]
		s += a[i+2] * b[i+2]
		s += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha * x in place. It panics on length mismatch.
// Element-wise, so unrolling cannot reassociate anything.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if alpha == 0 {
		return
	}
	y = y[:len(x)] // hoist the bounds check out of the loop
	i := 0
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Add computes y += x in place. It panics on length mismatch.
func Add(x, y []float64) { Axpy(1, x, y) }

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between a and b. It panics
// on length mismatch. This is the k-means hot path. Like Dot, the unroll
// keeps one sequential accumulator so the sum order (and therefore the
// clustering, and every committed grouping) is unchanged.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)] // hoist the bounds check out of the loop
	s := 0.0
	i := 0
	for ; i+4 <= len(a); i += 4 {
		d0 := a[i] - b[i]
		s += d0 * d0
		d1 := a[i+1] - b[i+1]
		s += d1 * d1
		d2 := a[i+2] - b[i+2]
		s += d2 * d2
		d3 := a[i+3] - b[i+3]
		s += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// ArgMax returns the index of the largest element, breaking ties toward the
// lower index. It panics on an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		panic("linalg: ArgMax on empty slice")
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// Normalize scales x in place to unit Euclidean norm. A zero vector is left
// unchanged. It returns the original norm.
func Normalize(x []float64) float64 {
	n := Norm2(x)
	if n > 0 {
		Scale(1/n, x)
	}
	return n
}
