package learner

import (
	"testing"

	"zombie/internal/linalg"
)

func sv(dim int, m map[int]float64) FeatureVector {
	return SparseVec(linalg.SparseFromMap(dim, m))
}

func TestFeatureVectorDense(t *testing.T) {
	v := DenseVec([]float64{1, 0, 3})
	if v.Dim() != 3 || v.IsSparse() || v.IsZero() {
		t.Fatal("dense wrapper state wrong")
	}
	if v.At(0) != 1 || v.At(2) != 3 {
		t.Fatal("At wrong")
	}
	if v.NNZ() != 2 {
		t.Fatalf("NNZ = %d", v.NNZ())
	}
	mustPanic(t, "At OOB", func() { v.At(3) })
}

func TestFeatureVectorSparse(t *testing.T) {
	v := sv(5, map[int]float64{1: 2, 4: -1})
	if v.Dim() != 5 || !v.IsSparse() {
		t.Fatal("sparse wrapper state wrong")
	}
	if v.At(1) != 2 || v.At(0) != 0 {
		t.Fatal("At wrong")
	}
	if v.NNZ() != 2 {
		t.Fatalf("NNZ = %d", v.NNZ())
	}
	d := v.Dense()
	if len(d) != 5 || d[4] != -1 {
		t.Fatalf("Dense = %v", d)
	}
	mustPanic(t, "nil sparse", func() { SparseVec(nil) })
}

func TestFeatureVectorDotAgree(t *testing.T) {
	w := []float64{1, 2, 3, 4}
	dense := DenseVec([]float64{1, 0, -1, 2})
	sparse := sv(4, map[int]float64{0: 1, 2: -1, 3: 2})
	if dense.Dot(w) != sparse.Dot(w) {
		t.Fatalf("dot mismatch: %v vs %v", dense.Dot(w), sparse.Dot(w))
	}
}

func TestFeatureVectorForEachNonZero(t *testing.T) {
	for _, v := range []FeatureVector{
		DenseVec([]float64{0, 5, 0, -2}),
		sv(4, map[int]float64{1: 5, 3: -2}),
	} {
		gotIdx := []int{}
		gotVal := []float64{}
		v.ForEachNonZero(func(i int, x float64) {
			gotIdx = append(gotIdx, i)
			gotVal = append(gotVal, x)
		})
		if len(gotIdx) != 2 || gotIdx[0] != 1 || gotIdx[1] != 3 || gotVal[0] != 5 || gotVal[1] != -2 {
			t.Fatalf("ForEachNonZero gave %v %v", gotIdx, gotVal)
		}
	}
}

func TestFeatureVectorIsZero(t *testing.T) {
	var v FeatureVector
	if !v.IsZero() {
		t.Fatal("zero-value FeatureVector should report IsZero")
	}
	if DenseVec([]float64{}).IsZero() {
		t.Fatal("wrapped empty slice is initialized")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
