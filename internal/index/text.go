// Package index implements Zombie's offline indexing phase: it converts
// raw inputs into cheap index-feature vectors, clusters the corpus into
// *index groups*, and persists the grouping for reuse across the many
// evaluation runs of a feature-engineering session.
//
// The central premise (paper §3): index features only need to be cheap and
// generic — a hashed bag of words, raw numeric descriptors, a surface
// attribute — because the bandit layer tolerates noisy groups. The index
// is built once per corpus and amortized over every subsequent run, which
// experiment T4 quantifies.
package index

import (
	"math"

	"zombie/internal/corpus"
	"zombie/internal/linalg"
)

// FNV-1a 32-bit parameters (the same constants hash/fnv uses); hashing is
// inlined here because the stdlib hasher costs two heap allocations per
// call and the hash sits on the per-token hot path of every extraction.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// HashToken maps a string to a bucket in [0, dim) with FNV-1a. Text is
// hashed token by token through TokenScanner, whose Hash is this
// function's state before the modulo, so vectorizers, feature code and
// callers hashing a whole ID agree on bucket assignment.
func HashToken(token string, dim int) int {
	h := uint32(fnvOffset32)
	for i := 0; i < len(token); i++ {
		h ^= uint32(token[i])
		h *= fnvPrime32
	}
	return int(h % uint32(dim))
}

// Vectorizer converts a raw input into a dense index-feature vector for
// clustering. Implementations must be cheap relative to the task feature
// code — the whole point of the index is to avoid the expensive path.
type Vectorizer interface {
	// Vectorize returns the input's index-feature vector of length Dim.
	Vectorize(in *corpus.Input) []float64
	// Dim returns the vector length.
	Dim() int
	// Name identifies the vectorizer in traces.
	Name() string
}

// HashedText is a hashing bag-of-words vectorizer: each token increments
// the bucket HashToken(token, dim); the result is L2-normalized so page
// length does not dominate the clustering distance.
type HashedText struct {
	dim int
}

// NewHashedText returns a hashing vectorizer with the given number of
// buckets. It panics if dim <= 0.
func NewHashedText(dim int) *HashedText {
	if dim <= 0 {
		panic("index: HashedText dim must be > 0")
	}
	return &HashedText{dim: dim}
}

// Vectorize implements Vectorizer. Non-text inputs vectorize to zeros.
func (v *HashedText) Vectorize(in *corpus.Input) []float64 {
	out := make([]float64, v.dim)
	if in.Kind != corpus.TextKind {
		return out
	}
	dim := uint32(v.dim)
	for sc := (TokenScanner{Text: in.Text}); sc.Next(); {
		out[sc.Hash%dim]++
	}
	linalg.Normalize(out)
	return out
}

// Dim implements Vectorizer.
func (v *HashedText) Dim() int { return v.dim }

// Name implements Vectorizer.
func (v *HashedText) Name() string { return "hashed-text" }

// Numeric passes an input's raw numeric payload through, optionally
// standardizing each dimension with precomputed means and scales.
type Numeric struct {
	dim   int
	mean  []float64
	scale []float64
}

// NewNumeric returns a pass-through vectorizer for dim-dimensional
// numeric inputs. It panics if dim <= 0.
func NewNumeric(dim int) *Numeric {
	if dim <= 0 {
		panic("index: Numeric dim must be > 0")
	}
	return &Numeric{dim: dim}
}

// FitStandardize computes per-dimension means and standard deviations
// over the store so Vectorize can z-score inputs. Dimensions with zero
// variance keep scale 1.
func (v *Numeric) FitStandardize(store corpus.Store) {
	n := 0
	mean := make([]float64, v.dim)
	m2 := make([]float64, v.dim)
	for i := 0; i < store.Len(); i++ {
		in := store.Get(i)
		if in.Kind != corpus.NumericKind || len(in.Values) != v.dim {
			continue
		}
		n++
		for d, x := range in.Values {
			delta := x - mean[d]
			mean[d] += delta / float64(n)
			m2[d] += delta * (x - mean[d])
		}
	}
	if n < 2 {
		return
	}
	scale := make([]float64, v.dim)
	for d := range scale {
		variance := m2[d] / float64(n-1)
		if variance > 0 {
			scale[d] = 1 / math.Sqrt(variance)
		} else {
			scale[d] = 1
		}
	}
	v.mean, v.scale = mean, scale
}

// Vectorize implements Vectorizer. Inputs of the wrong kind or length
// vectorize to zeros.
func (v *Numeric) Vectorize(in *corpus.Input) []float64 {
	out := make([]float64, v.dim)
	if in.Kind != corpus.NumericKind || len(in.Values) != v.dim {
		return out
	}
	copy(out, in.Values)
	if v.mean != nil {
		for d := range out {
			out[d] = (out[d] - v.mean[d]) * v.scale[d]
		}
	}
	return out
}

// Dim implements Vectorizer.
func (v *Numeric) Dim() int { return v.dim }

// Name implements Vectorizer.
func (v *Numeric) Name() string { return "numeric" }
