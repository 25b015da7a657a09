// Package rng provides deterministic, splittable pseudo-random number
// generation for the Zombie system.
//
// Every stochastic component in the repository (corpus generators, bandit
// policies, learners that shuffle their training data, experiment
// harnesses) draws from an *rng.RNG seeded explicitly by its caller, so a
// run is exactly reproducible from its top-level seed. Substreams derived
// with Split are statistically independent of each other and stable across
// runs, which lets concurrent components share one logical seed without
// sharing a lock or perturbing each other's sequences.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic pseudo-random number generator. It wraps
// math/rand.Rand (never the global source) and adds the samplers the rest
// of the system needs: Gamma, Beta, Zipf, truncated Gaussian, and weighted
// choice. An RNG is not safe for concurrent use; derive one per goroutine
// with Split.
type RNG struct {
	*rand.Rand
	seed int64
}

// New returns an RNG seeded with seed. Two RNGs built from the same seed
// produce identical sequences.
func New(seed int64) *RNG {
	return &RNG{Rand: rand.New(rand.NewSource(seed)), seed: seed}
}

// Seed returns the seed this RNG was created with. Substreams report the
// derived seed, not the parent's.
func (r *RNG) Seed() int64 { return r.seed }

// Split derives an independent substream identified by name. The derived
// seed depends only on the parent seed and the name, not on how much of the
// parent stream has been consumed, so components can be added or reordered
// without disturbing each other's randomness.
func (r *RNG) Split(name string) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	putInt64(buf[:], r.seed)
	h.Write(buf[:])
	h.Write([]byte(name))
	return New(int64(h.Sum64()))
}

func putInt64(b []byte, v int64) {
	u := uint64(v)
	for i := 0; i < 8; i++ {
		b[i] = byte(u >> (8 * i))
	}
}

// Bernoulli returns true with probability p. Probabilities outside [0,1]
// are clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// IntRange returns a uniform int in [lo, hi). It panics if hi <= lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi <= lo {
		panic("rng: IntRange requires hi > lo")
	}
	return lo + r.Intn(hi-lo)
}

// Choice returns a uniformly chosen index in [0, n). It panics if n <= 0.
func (r *RNG) Choice(n int) int {
	if n <= 0 {
		panic("rng: Choice requires n > 0")
	}
	return r.Intn(n)
}

// WeightedChoice returns an index drawn proportionally to the non-negative
// weights. If all weights are zero it falls back to a uniform draw. It
// panics on an empty slice or a negative weight.
func (r *RNG) WeightedChoice(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: WeightedChoice on empty weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			panic("rng: WeightedChoice negative weight")
		}
		_ = i
		total += w
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	x := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if x < acc {
			return i
		}
	}
	return len(weights) - 1 // floating-point slack
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n) in random order. It panics if k > n or k < 0.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: SampleWithoutReplacement requires 0 <= k <= n")
	}
	// Partial Fisher–Yates over an index array.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// ShuffleInts shuffles s in place.
func (r *RNG) ShuffleInts(s []int) {
	r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}
