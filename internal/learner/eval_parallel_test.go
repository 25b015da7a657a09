package learner

import (
	"runtime"
	"sync"
	"testing"

	"zombie/internal/rng"
)

// evalFixture builds a trained GaussianNB and a holdout of n examples.
func evalFixture(t testing.TB, n int) (*Holdout, Model) {
	t.Helper()
	r := rng.New(7)
	dim := 16
	examples := make([]Example, n)
	for i := range examples {
		class := i % 2
		vec := make([]float64, dim)
		for d := range vec {
			vec[d] = r.NormFloat64() + float64(class)*1.5
		}
		examples[i] = Example{Features: DenseVec(vec), Class: class}
	}
	m := NewGaussianNB(dim, 2, 1e-3)
	for _, ex := range examples[:n/2] {
		m.PartialFit(ex)
	}
	return NewHoldout(examples, MetricF1, 1), m
}

// atProcs runs fn at GOMAXPROCS procs, so QualityParallel's helper budget
// is procs slots, and restores the setting.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestQualityParallelMatchesSequential asserts bit-identical classification
// scores however many helpers are free — the engine's determinism depends
// on it.
func TestQualityParallelMatchesSequential(t *testing.T) {
	h, m := evalFixture(t, 2000)
	want := h.Quality(m)
	for _, procs := range []int{1, 2, 3, 8, 32} {
		atProcs(procs, func() {
			if got := h.QualityParallel(m); got != want {
				t.Fatalf("GOMAXPROCS=%d: %v != sequential %v", procs, got, want)
			}
		})
	}
}

// TestQualityParallelFallsBackForUnsafeModels: a model without the
// ConcurrentPredictor marker (RidgeClosed solves lazily on its first
// prediction) must still evaluate correctly — via the sequential path,
// bit-identical to Quality.
func TestQualityParallelFallsBackForUnsafeModels(t *testing.T) {
	r := rng.New(11)
	dim, n := 8, 3000
	examples := make([]Example, n)
	for i := range examples {
		vec := make([]float64, dim)
		sum := 0.0
		for d := range vec {
			vec[d] = r.NormFloat64()
			sum += vec[d]
		}
		examples[i] = Example{Features: DenseVec(vec), Target: sum + 0.1*r.NormFloat64()}
	}
	h := NewHoldout(examples, MetricNegRMSE, 0)
	for _, procs := range []int{2, 3, 8, 17} {
		m := NewRidgeClosed(dim, 1e-3)
		for _, ex := range examples[:n/2] {
			m.PartialFit(ex)
		}
		var got float64
		atProcs(procs, func() { got = h.QualityParallel(m) })
		if want := h.Quality(m); got != want {
			t.Fatalf("GOMAXPROCS=%d: fallback %v != sequential %v", procs, got, want)
		}
	}
}

// TestQualityParallelConcurrentCallers exercises simultaneous parallel
// evaluations of one shared model; `make race` runs this under the race
// detector, which is the real assertion.
func TestQualityParallelConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	h, m := evalFixture(t, 4000)
	want := h.Quality(m)
	var wg sync.WaitGroup
	errs := make(chan float64, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- h.QualityParallel(m)
		}()
	}
	wg.Wait()
	close(errs)
	for got := range errs {
		if got != want {
			t.Fatalf("concurrent caller got %v, want %v", got, want)
		}
	}
}
