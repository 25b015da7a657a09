package learner

import (
	"testing"

	"zombie/internal/rng"
)

// linearlySeparable builds a 2-D binary problem: class 1 iff x0+x1 > 0,
// with a comfortable margin.
func linearlySeparable(n int, r *rng.RNG) []Example {
	out := make([]Example, n)
	for i := range out {
		x := []float64{r.Range(-1, 1), r.Range(-1, 1)}
		cls := 0
		if x[0]+x[1] > 0 {
			cls = 1
		}
		// Push points away from the boundary for a clean margin.
		shift := 0.3
		if cls == 1 {
			x[0] += shift
			x[1] += shift
		} else {
			x[0] -= shift
			x[1] -= shift
		}
		out[i] = Example{Features: DenseVec(x), Class: cls}
	}
	return out
}

func trainAll(m Model, exs []Example, epochs int) {
	for e := 0; e < epochs; e++ {
		for _, ex := range exs {
			m.PartialFit(ex)
		}
	}
}

func classifierAccuracy(c Classifier, exs []Example) float64 {
	correct := 0
	for _, ex := range exs {
		if c.PredictClass(ex.Features) == ex.Class {
			correct++
		}
	}
	return float64(correct) / float64(len(exs))
}

func TestBinaryClassifiersLearnSeparableProblem(t *testing.T) {
	r := rng.New(1)
	train := linearlySeparable(400, r.Split("train"))
	test := linearlySeparable(200, r.Split("test"))
	m := NewGaussianNB(2, 2, 1e-3)
	trainAll(m, train, 3)
	if acc := classifierAccuracy(m, test); acc < 0.95 {
		t.Errorf("gauss-nb: accuracy %.3f < 0.95 on separable data", acc)
	}
	if m.Seen() != 1200 {
		t.Errorf("gauss-nb: Seen = %d, want 1200", m.Seen())
	}
}

func TestGaussianNBMulticlass(t *testing.T) {
	// Three Gaussian blobs in 2-D.
	r := rng.New(2)
	centers := [][]float64{{2, 0}, {-2, 0}, {0, 2.5}}
	gen := func(n int, rr *rng.RNG) []Example {
		out := make([]Example, n)
		for i := range out {
			c := i % 3
			out[i] = Example{
				Features: DenseVec([]float64{
					rr.Gaussian(centers[c][0], 0.4),
					rr.Gaussian(centers[c][1], 0.4),
				}),
				Class: c,
			}
		}
		return out
	}
	train := gen(600, r.Split("train"))
	test := gen(300, r.Split("test"))
	m := NewGaussianNB(2, 3, 1e-3)
	trainAll(m, train, 2)
	if acc := classifierAccuracy(m, test); acc < 0.9 {
		t.Errorf("gauss-nb: accuracy %.3f < 0.9 on 3 blobs", acc)
	}
}

func TestDimAndClassValidation(t *testing.T) {
	mn := NewMultinomialNB(3, 2, 1)
	mustPanic(t, "dim", func() {
		mn.PartialFit(Example{Features: DenseVec([]float64{1}), Class: 0})
	})
	mustPanic(t, "class", func() {
		mn.PartialFit(Example{Features: DenseVec([]float64{1, 2, 3}), Class: 2})
	})
	mustPanic(t, "predict dim", func() { mn.PredictClass(DenseVec([]float64{1})) })
	gn := NewGaussianNB(2, 3, 1e-3)
	mustPanic(t, "gaussian class", func() {
		gn.PartialFit(Example{Features: DenseVec([]float64{1, 2}), Class: 3})
	})
	rc := NewRidgeClosed(2, 1)
	mustPanic(t, "ridge dim", func() {
		rc.PartialFit(Example{Features: DenseVec([]float64{1}), Target: 1})
	})
	mustPanic(t, "ridge predict dim", func() { rc.Predict(DenseVec([]float64{1, 2, 3})) })
}
