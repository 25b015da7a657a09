package learner

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"zombie/internal/parallel"
	"zombie/internal/rng"
)

func TestHoldoutQualityClassification(t *testing.T) {
	r := rng.New(30)
	train := linearlySeparable(210, r.Split("train"))
	hold := linearlySeparable(90, r.Split("holdout"))
	h := NewHoldout(hold, MetricAccuracy, 1)
	m := NewGaussianNB(2, 2, 1e-3)
	if q := h.Quality(m); q != 0 {
		t.Fatalf("untrained quality = %v, want 0", q)
	}
	trainAll(m, train, 3)
	if q := h.Quality(m); q < 0.95 {
		t.Fatalf("trained accuracy = %v", q)
	}
	hf1 := NewHoldout(hold, MetricF1, 1)
	if q := hf1.Quality(m); q < 0.9 {
		t.Fatalf("trained F1 = %v", q)
	}
	hm := NewHoldout(hold, MetricMacroF1, 0)
	if q := hm.Quality(m); q < 0.9 {
		t.Fatalf("trained macro-F1 = %v", q)
	}
}

func TestHoldoutQualityRegression(t *testing.T) {
	r := rng.New(31)
	exs := make([]Example, 400)
	for i := range exs {
		x := r.Range(-1, 1)
		exs[i] = Example{Features: DenseVec([]float64{x}), Target: 4 * x}
	}
	train, hold := exs[100:], exs[:100]
	h := NewHoldout(hold, MetricR2, 0)
	m := NewRidgeClosed(1, 0.1)
	trainAll(m, train, 1)
	if q := h.Quality(m); q < 0.95 {
		t.Fatalf("R2 = %v", q)
	}
	hr := NewHoldout(hold, MetricNegRMSE, 0)
	if q := hr.Quality(m); q > 0 || q < -0.5 {
		t.Fatalf("-RMSE = %v", q)
	}
	// Untrained regression floor uses the zero predictor.
	m2 := NewRidgeClosed(1, 0.1)
	floor := hr.Quality(m2)
	if floor >= 0 {
		t.Fatalf("floor = %v, expected negative", floor)
	}
}

func TestHoldoutMetricModelMismatchPanics(t *testing.T) {
	hold := []Example{{Features: DenseVec([]float64{1}), Class: 0, Target: 1}}
	hc := NewHoldout(hold, MetricAccuracy, 0)
	reg := NewRidgeClosed(1, 0.1)
	reg.PartialFit(hold[0])
	mustPanic(t, "classifier metric on regressor", func() { hc.Quality(reg) })
	hr := NewHoldout(hold, MetricR2, 0)
	cls := NewGaussianNB(1, 2, 1e-3)
	cls.PartialFit(hold[0])
	mustPanic(t, "regressor metric on classifier", func() { hr.Quality(cls) })
	mustPanic(t, "empty holdout", func() { NewHoldout(nil, MetricAccuracy, 0) })
}

func TestMetricString(t *testing.T) {
	for m, want := range map[Metric]string{
		MetricAccuracy: "accuracy",
		MetricF1:       "f1",
		MetricMacroF1:  "macro-f1",
		MetricR2:       "r2",
		MetricNegRMSE:  "-rmse",
		Metric(9):      "Metric(9)",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
	if !MetricF1.IsClassification() || MetricR2.IsClassification() {
		t.Fatal("IsClassification wrong")
	}
}

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

// atProcs runs fn at GOMAXPROCS procs holding one slot, as a run does, so
// a chunked pass borrows at most procs-1 helpers, and restores the setting.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer parallel.Hold()()
	fn()
}

// perExampleQuality is h's metric over one PredictClass per example: the
// reference every pass must match.
func perExampleQuality(h *Holdout, c Classifier) float64 {
	cm := NewConfusionMatrix(c.NumClasses())
	for _, ex := range h.Examples {
		cm.Observe(ex.Class, c.PredictClass(ex.Features))
	}
	return h.scoreClassification(cm)
}

// TestQualityMatchesAcrossProcs asserts bit-identical classification
// scores, one-shot and through an evaluator, however many helpers are free
// — the engine's determinism depends on it.
func TestQualityMatchesAcrossProcs(t *testing.T) {
	h, m := evalFixture(t, 2000)
	want := perExampleQuality(h, m.(Classifier))
	ev := h.Evaluator(m)
	for _, procs := range []int{1, 2, 3, 8, 32} {
		atProcs(procs, func() {
			if got := h.Quality(m); got != want {
				t.Fatalf("GOMAXPROCS=%d: Quality %v != per-example %v", procs, got, want)
			}
			if got := ev.Quality(); got != want {
				t.Fatalf("GOMAXPROCS=%d: Evaluator.Quality %v != per-example %v", procs, got, want)
			}
		})
	}
}

// TestQualityFallsBackForUnsafeModels: a model that is not a
// blockClassifier (RidgeClosed solves lazily on its first prediction) is
// scored on the caller in one block, whatever the helper budget, and its
// evaluator keeps nothing.
func TestQualityFallsBackForUnsafeModels(t *testing.T) {
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
		ev := h.Evaluator(m)
		var got, again float64
		atProcs(procs, func() { got, again = h.Quality(m), ev.Quality() })
		var rm RegressionMetrics
		for _, ex := range examples {
			rm.Observe(ex.Target, m.Predict(ex.Features))
		}
		if want := -rm.RMSE(); got != want || again != want {
			t.Fatalf("GOMAXPROCS=%d: Quality %v, Evaluator.Quality %v, per-example %v", procs, got, again, want)
		}
		if ev.rows != nil {
			t.Fatal("an evaluator of a regressor built rows")
		}
	}
}

// TestQualityConcurrentCallers scores one shared model of each family from
// eight goroutines at once, one-shot and through evaluators of their own,
// with tables current and with tables left stale by fits since the last
// pass; `make race` runs this under the race detector, which is the real
// assertion.
func TestQualityConcurrentCallers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, gaussian := range []bool{true, false} {
		for _, stale := range []bool{false, true} {
			pc := preparedCase{gaussian: gaussian, classes: 3}
			t.Run(fmt.Sprintf("%v/stale=%v", pc, stale), func(t *testing.T) {
				r := rng.New(13)
				h := NewHoldout(pc.examples(r, 4000), MetricMacroF1, 1)
				train := pc.examples(r, 400)
				m, ref := pc.pair().model, pc.pair().model
				fit := func(examples []Example) {
					for _, ex := range examples {
						m.PartialFit(ex)
						ref.PartialFit(ex)
					}
				}
				fit(train[:200])
				h.Quality(m)
				if stale {
					fit(train[200:399])
				}
				want := perExampleQuality(h, ref)
				var wg sync.WaitGroup
				got := make([]float64, 8)
				for i := range got {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if i%2 == 0 {
							got[i] = h.Quality(m)
						} else {
							got[i] = h.Evaluator(m).Quality()
						}
					}()
				}
				wg.Wait()
				for i, q := range got {
					if q != want {
						t.Fatalf("caller %d got %v, want %v", i, q, want)
					}
				}
			})
		}
	}
}
