package learner

import (
	"testing"

	"zombie/internal/rng"
)

func TestMultinomialNBTextLike(t *testing.T) {
	// Vocabulary of 20 tokens: tokens 0-4 indicate class 0, 5-9 class 1.
	r := rng.New(10)
	m := NewMultinomialNB(20, 2, 1)
	gen := func(cls int, rr *rng.RNG) Example {
		counts := map[int]float64{}
		base := cls * 5
		for k := 0; k < 8; k++ {
			if rr.Bernoulli(0.7) {
				counts[base+rr.Intn(5)]++
			} else {
				counts[10+rr.Intn(10)]++ // shared noise tokens
			}
		}
		return Example{Features: sv(20, counts), Class: cls}
	}
	for i := 0; i < 600; i++ {
		m.PartialFit(gen(i%2, r.Split("train")))
	}
	correct := 0
	for i := 0; i < 200; i++ {
		ex := gen(i%2, r.Split("test"))
		if m.PredictClass(ex.Features) == ex.Class {
			correct++
		}
	}
	if acc := float64(correct) / 200; acc < 0.9 {
		t.Fatalf("MultinomialNB accuracy %.3f < 0.9", acc)
	}
}

func TestMultinomialNBIgnoresNegativeValues(t *testing.T) {
	m := NewMultinomialNB(3, 2, 1)
	m.PartialFit(Example{Features: DenseVec([]float64{-5, 1, 0}), Class: 0})
	m.PartialFit(Example{Features: DenseVec([]float64{0, 0, 1}), Class: 1})
	// Feature 0's negative count must not have been absorbed.
	if m.featCount[0][0] != 0 {
		t.Fatalf("negative value leaked into counts: %v", m.featCount[0][0])
	}
}

func TestGaussianNBSeparatesGaussians(t *testing.T) {
	r := rng.New(11)
	m := NewGaussianNB(1, 2, 1e-3)
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			m.PartialFit(Example{Features: DenseVec([]float64{r.Gaussian(-2, 0.5)}), Class: 0})
		} else {
			m.PartialFit(Example{Features: DenseVec([]float64{r.Gaussian(2, 0.5)}), Class: 1})
		}
	}
	if m.PredictClass(DenseVec([]float64{-2})) != 0 {
		t.Fatal("left blob misclassified")
	}
	if m.PredictClass(DenseVec([]float64{2})) != 1 {
		t.Fatal("right blob misclassified")
	}
}

func TestGaussianNBUsesVariance(t *testing.T) {
	// Same mean, very different variance: a wide class should claim
	// far-out points even though means coincide.
	r := rng.New(12)
	m := NewGaussianNB(1, 2, 1e-4)
	for i := 0; i < 2000; i++ {
		if i%2 == 0 {
			m.PartialFit(Example{Features: DenseVec([]float64{r.Gaussian(0, 0.1)}), Class: 0})
		} else {
			m.PartialFit(Example{Features: DenseVec([]float64{r.Gaussian(0, 3)}), Class: 1})
		}
	}
	if m.PredictClass(DenseVec([]float64{5})) != 1 {
		t.Fatal("far point should belong to the wide class")
	}
	if m.PredictClass(DenseVec([]float64{0.01})) != 0 {
		t.Fatal("central point should belong to the narrow class")
	}
}

func TestNBResetAndSeen(t *testing.T) {
	mn := NewMultinomialNB(4, 2, 1)
	gn := NewGaussianNB(4, 2, 1e-3)
	ex := Example{Features: DenseVec([]float64{1, 0, 2, 0}), Class: 1}
	for _, m := range []Model{mn, gn} {
		m.PartialFit(ex)
		m.PartialFit(ex)
		if m.Seen() != 2 {
			t.Fatalf("%T Seen = %d", m, m.Seen())
		}
	}
}

func TestNBConstructorValidation(t *testing.T) {
	mustPanic(t, "alpha", func() { NewMultinomialNB(4, 2, 0) })
	mustPanic(t, "classes", func() { NewMultinomialNB(4, 1, 1) })
	mustPanic(t, "dim", func() { NewMultinomialNB(0, 2, 1) })
	mustPanic(t, "varFloor", func() { NewGaussianNB(4, 2, 0) })
	mustPanic(t, "gnb classes", func() { NewGaussianNB(4, 0, 1e-3) })
}

func TestNBClassValidation(t *testing.T) {
	m := NewMultinomialNB(2, 2, 1)
	mustPanic(t, "class range", func() {
		m.PartialFit(Example{Features: DenseVec([]float64{1, 0}), Class: 5})
	})
	g := NewGaussianNB(2, 2, 1e-3)
	mustPanic(t, "gnb dim", func() {
		g.PartialFit(Example{Features: DenseVec([]float64{1}), Class: 0})
	})
}
