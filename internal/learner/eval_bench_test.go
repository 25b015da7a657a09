package learner

import (
	"testing"

	"zombie/internal/linalg"
	"zombie/internal/rng"
)

// The holdout size mirrors the full-scale engine configuration: a ~2k
// example holdout scored on every evaluation step, which makes Quality the
// engine's hottest read path. Allocations here are paid twice per bandit
// step (quality-delta reward brackets train with a before/after pair), so
// every benchmark reports allocs/op.

// BenchmarkHoldoutQuality is a one-shot pass over an unchanged model:
// exact, in one block on the caller.
func BenchmarkHoldoutQuality(b *testing.B) {
	h, m := evalFixture(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quality(m)
	}
}

// multinomialFixture builds n sparse-count examples and a MultinomialNB
// trained on the first half: the model the wiki workload trains.
func multinomialFixture(n int) ([]Example, *MultinomialNB) {
	r := rng.New(11)
	const dim = 256
	examples := make([]Example, n)
	for i := range examples {
		class := i % 2
		var idx []int
		var val []float64
		for d := 0; d < dim; d += 32 {
			idx = append(idx, d+(i+class)%32)
			val = append(val, float64(r.IntRange(1, 4)))
		}
		examples[i] = Example{Features: SparseVec(linalg.NewSparse(dim, idx, val)), Class: class}
	}
	m := NewMultinomialNB(dim, 2, 1.0)
	for _, ex := range examples[:n/2] {
		m.PartialFit(ex)
	}
	return examples, m
}

// BenchmarkHoldoutQualityMultinomial scores the sparse-count path
// (MultinomialNB over hashed text).
func BenchmarkHoldoutQualityMultinomial(b *testing.B) {
	examples, m := multinomialFixture(2000)
	h := NewHoldout(examples, MetricF1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Quality(m)
	}
}

// The benchmarks above re-score an unchanged model, so they never pay for
// a score-table refresh. The AfterFit pair measures the engine's actual
// cadence: EvalEvery=25 PartialFits, then one pass of the model's
// evaluator.

func benchmarkQualityAfterFit(b *testing.B, h *Holdout, m Model) {
	ev := h.Evaluator(m)
	round := func() {
		for _, ex := range h.Examples[:25] {
			m.PartialFit(ex)
		}
		ev.Quality()
	}
	ev.Quality() // builds the score tables and rows,
	round()      // and this grows the touch lists to their steady size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func BenchmarkHoldoutQualityAfterFitGaussian(b *testing.B) {
	h, m := evalFixture(b, 2000)
	benchmarkQualityAfterFit(b, h, m)
}

// BenchmarkHoldoutQualityFewClassesStale is the songs workload's cadence:
// a 10-class GaussianNB over a 2 000-example holdout, 25 fits of two
// classes between passes of its evaluator, which re-sums 2 of 10 classes.
func BenchmarkHoldoutQualityFewClassesStale(b *testing.B) {
	const classes, dim = 10, 12
	r := rng.New(17)
	h := NewHoldout(gaussianStream(r, 2000, classes, dim), MetricMacroF1, 0)
	train := gaussianStream(r, 4000, classes, dim)
	m := NewGaussianNB(dim, classes, 1e-3)
	for _, ex := range train {
		m.PartialFit(ex)
	}
	ev := h.Evaluator(m)
	step := 0
	round := func() {
		for i := 0; i < 25; i++ {
			ex := train[(25*step+i)%len(train)]
			ex.Class = (2*step + i%2) % classes
			m.PartialFit(ex)
		}
		step++
		ev.Quality()
	}
	ev.Quality() // builds the holdout rows
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

func BenchmarkHoldoutQualityAfterFitMultinomial(b *testing.B) {
	examples, m := multinomialFixture(2000)
	benchmarkQualityAfterFit(b, NewHoldout(examples, MetricF1, 1), m)
}
