package linalg

import (
	"fmt"
	"sort"
)

// Sparse is an immutable-by-convention sparse vector in coordinate form.
// Indices are strictly increasing and values are non-zero; NewSparse
// establishes the invariant and the arithmetic below relies on it. The
// feature-hashing vectorizer produces Sparse vectors; the learners consume
// them without densifying.
type Sparse struct {
	Idx []int
	Val []float64
	Dim int
}

// NewSparse builds a Sparse vector of dimension dim from parallel
// index/value slices. It copies its arguments, drops zero values, sorts by
// index, and sums duplicate indices. It panics if the slices have different
// lengths or any index is outside [0, dim).
func NewSparse(dim int, idx []int, val []float64) *Sparse {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("linalg: NewSparse index/value length mismatch %d vs %d", len(idx), len(val)))
	}
	type pair struct {
		i int
		v float64
	}
	pairs := make([]pair, 0, len(idx))
	for k, i := range idx {
		if i < 0 || i >= dim {
			panic(fmt.Sprintf("linalg: NewSparse index %d out of range [0,%d)", i, dim))
		}
		if val[k] != 0 {
			pairs = append(pairs, pair{i, val[k]})
		}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].i < pairs[b].i })
	s := &Sparse{Dim: dim}
	for _, p := range pairs {
		if n := len(s.Idx); n > 0 && s.Idx[n-1] == p.i {
			s.Val[n-1] += p.v
			continue
		}
		s.Idx = append(s.Idx, p.i)
		s.Val = append(s.Val, p.v)
	}
	// Duplicate merging can cancel to zero; sweep those out.
	w := 0
	for k := range s.Idx {
		if s.Val[k] != 0 {
			s.Idx[w], s.Val[w] = s.Idx[k], s.Val[k]
			w++
		}
	}
	s.Idx, s.Val = s.Idx[:w], s.Val[:w]
	return s
}

// SparseFromOrdered wraps already-ordered coordinate slices as a Sparse
// vector without copying or sorting. The caller promises strictly
// increasing indices within [0, dim) and non-zero values — the invariant
// NewSparse would otherwise establish in O(n log n). Violations panic, so
// misuse is loud rather than silently breaking the arithmetic.
func SparseFromOrdered(dim int, idx []int, val []float64) *Sparse {
	if len(idx) != len(val) {
		panic(fmt.Sprintf("linalg: SparseFromOrdered index/value length mismatch %d vs %d", len(idx), len(val)))
	}
	prev := -1
	for k, i := range idx {
		if i <= prev || i >= dim {
			panic(fmt.Sprintf("linalg: SparseFromOrdered index %d at position %d breaks strictly-increasing [0,%d)", i, k, dim))
		}
		if val[k] == 0 {
			panic(fmt.Sprintf("linalg: SparseFromOrdered zero value at position %d", k))
		}
		prev = i
	}
	return &Sparse{Idx: idx, Val: val, Dim: dim}
}

// SparseFromMap builds a Sparse vector from an index→value map.
func SparseFromMap(dim int, m map[int]float64) *Sparse {
	idx := make([]int, 0, len(m))
	val := make([]float64, 0, len(m))
	for i, v := range m {
		idx = append(idx, i)
		val = append(val, v)
	}
	return NewSparse(dim, idx, val)
}

// NNZ returns the number of stored (non-zero) entries.
func (s *Sparse) NNZ() int { return len(s.Idx) }

// At returns the value at index i (0 if not stored). It panics if i is out
// of range.
func (s *Sparse) At(i int) float64 {
	if i < 0 || i >= s.Dim {
		panic(fmt.Sprintf("linalg: Sparse.At index %d out of range [0,%d)", i, s.Dim))
	}
	k := sort.SearchInts(s.Idx, i)
	if k < len(s.Idx) && s.Idx[k] == i {
		return s.Val[k]
	}
	return 0
}

// Dense materializes the vector into a new dense slice of length Dim.
func (s *Sparse) Dense() []float64 {
	out := make([]float64, s.Dim)
	for k, i := range s.Idx {
		out[i] = s.Val[k]
	}
	return out
}

// DotDense returns the inner product with a dense vector. It panics on
// dimension mismatch.
func (s *Sparse) DotDense(d []float64) float64 {
	if len(d) != s.Dim {
		panic(fmt.Sprintf("linalg: Sparse.DotDense dimension mismatch %d vs %d", s.Dim, len(d)))
	}
	sum := 0.0
	for k, i := range s.Idx {
		sum += s.Val[k] * d[i]
	}
	return sum
}
