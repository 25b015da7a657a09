// Package learner is the machine-learning substrate under the Zombie
// engine. The paper's prototype delegates model training to scikit-learn;
// Go has no equivalent standard library, so this package implements the
// learners the workloads fit — naive Bayes (multinomial and Gaussian) and a
// closed-form ridge regressor — and the metrics and holdout evaluation the
// reward functions and learning curves are computed from.
//
// Everything is incremental: Zombie feeds the learner exactly one example
// per raw input processed, so every model implements PartialFit and keeps
// its state updatable without revisiting earlier examples.
package learner

import (
	"fmt"

	"zombie/internal/linalg"
)

// FeatureVector is a feature vector that is either dense or sparse.
// Feature code over text produces hashed sparse vectors; numeric tasks
// (audio features, image descriptors) produce dense ones. Learners accept
// both through this type without copying.
type FeatureVector struct {
	dense  []float64
	sparse *linalg.Sparse
	dim    int
}

// DenseVec wraps a dense feature slice. The slice is not copied; callers
// must not mutate it afterwards.
func DenseVec(x []float64) FeatureVector {
	return FeatureVector{dense: x, dim: len(x)}
}

// SparseVec wraps a sparse vector. The vector is not copied.
func SparseVec(s *linalg.Sparse) FeatureVector {
	if s == nil {
		panic("learner: SparseVec(nil)")
	}
	return FeatureVector{sparse: s, dim: s.Dim}
}

// Dim returns the dimensionality of the vector.
func (v FeatureVector) Dim() int { return v.dim }

// IsZero reports whether the vector was never initialized (no backing
// storage), as opposed to an all-zero vector of positive dimension.
func (v FeatureVector) IsZero() bool { return v.dense == nil && v.sparse == nil }

// IsSparse reports whether the vector has a sparse backing store.
func (v FeatureVector) IsSparse() bool { return v.sparse != nil }

// At returns element i. It panics when i is out of range.
func (v FeatureVector) At(i int) float64 {
	if v.sparse != nil {
		return v.sparse.At(i)
	}
	if i < 0 || i >= len(v.dense) {
		panic(fmt.Sprintf("learner: FeatureVector.At index %d out of range [0,%d)", i, len(v.dense)))
	}
	return v.dense[i]
}

// Dot returns the inner product with a dense weight vector. It panics on
// dimension mismatch.
func (v FeatureVector) Dot(w []float64) float64 {
	if v.sparse != nil {
		return v.sparse.DotDense(w)
	}
	return linalg.Dot(v.dense, w)
}

// Dense materializes the vector as a new dense slice.
func (v FeatureVector) Dense() []float64 {
	if v.sparse != nil {
		return v.sparse.Dense()
	}
	return linalg.Clone(v.dense)
}

// NNZ returns the number of non-zero coordinates (exact for sparse,
// counted for dense).
func (v FeatureVector) NNZ() int {
	if v.sparse != nil {
		return v.sparse.NNZ()
	}
	n := 0
	for _, x := range v.dense {
		if x != 0 {
			n++
		}
	}
	return n
}

// ForEachNonZero calls f(i, x) for every non-zero coordinate x at index i,
// in increasing index order. For sparse vectors this touches only stored
// entries, which keeps count-based learners O(nnz) per example.
func (v FeatureVector) ForEachNonZero(f func(i int, x float64)) {
	if v.sparse != nil {
		for k, i := range v.sparse.Idx {
			f(i, v.sparse.Val[k])
		}
		return
	}
	for i, x := range v.dense {
		if x != 0 {
			f(i, x)
		}
	}
}

// AppendNonZeros appends the coordinates ForEachNonZero visits to idx and
// val, each index shifted by offset, and returns the extended slices. A
// sparse vector is appended by copy — one copy per slice and one pass
// adding the offset — with no call per coordinate.
func (v FeatureVector) AppendNonZeros(idx []int, val []float64, offset int) ([]int, []float64) {
	if v.sparse != nil {
		n := len(idx)
		idx = append(idx, v.sparse.Idx...)
		for k := n; k < len(idx); k++ {
			idx[k] += offset
		}
		return idx, append(val, v.sparse.Val...)
	}
	for i, x := range v.dense {
		if x != 0 {
			idx = append(idx, offset+i)
			val = append(val, x)
		}
	}
	return idx, val
}

// Example is one labeled training or evaluation example produced by a
// feature function. Class carries the classification label; Target carries
// the regression target. Which one is meaningful depends on the task.
type Example struct {
	Features FeatureVector
	Class    int
	Target   float64
}

// checkDim panics with a descriptive message when an example's
// dimensionality does not match the model's.
func checkDim(modelDim int, v FeatureVector, model string) {
	if v.Dim() != modelDim {
		panic(fmt.Sprintf("learner: %s built for dim %d got vector of dim %d", model, modelDim, v.Dim()))
	}
}

// checkClass panics when a class label is outside the model's range.
func checkClass(numClasses, class int, model string) {
	if class < 0 || class >= numClasses {
		panic(fmt.Sprintf("learner: %s built for %d classes got class %d", model, numClasses, class))
	}
}

// Model is the minimal contract the Zombie engine needs from any learner.
//
// A model's fitted state after PartialFit over a set of examples must not
// depend on the order they arrived in (beyond floating-point accumulation
// order): every learner here is a sum of per-example sufficient statistics
// — class and feature counts, per-class moments, XᵀX and Xᵀy. The engine
// relies on it: a run trains one model, fitting each example once in the
// order the bandit produced it, and its learning curve scores that model
// as the example set collected so far, never by retraining.
//
// A model is never fitted while it is scored. The naive Bayes families may
// be scored — PredictClass, Holdout.Quality — from several
// goroutines at once: each refreshes its score tables under its own mutex,
// and a pass writes nothing else of the model. RidgeClosed solves lazily
// at its first prediction after a fit, so it is scored from one goroutine.
type Model interface {
	// PartialFit folds a single example into the model.
	PartialFit(ex Example)
	// Seen returns how many examples the model has absorbed.
	Seen() int
}

// Classifier predicts a discrete class.
type Classifier interface {
	Model
	// PredictClass returns the most likely class for v.
	PredictClass(v FeatureVector) int
	// NumClasses returns the number of classes the model was built with.
	NumClasses() int
}

// Regressor predicts a real-valued target.
type Regressor interface {
	Model
	// Predict returns the predicted target for v.
	Predict(v FeatureVector) float64
}
