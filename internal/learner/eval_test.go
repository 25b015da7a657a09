package learner

import (
	"testing"

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
