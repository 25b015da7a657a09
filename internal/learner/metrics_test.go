package learner

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfusionMatrixAccuracy(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.Observe(0, 0)
	m.Observe(0, 1)
	m.Observe(1, 1)
	m.Observe(1, 1)
	if m.Total() != 4 {
		t.Fatalf("Total = %d", m.Total())
	}
	if math.Abs(m.Accuracy()-0.75) > 1e-12 {
		t.Fatalf("Accuracy = %v", m.Accuracy())
	}
}

func TestConfusionMatrixEmptyAccuracy(t *testing.T) {
	if NewConfusionMatrix(3).Accuracy() != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	m := NewConfusionMatrix(2)
	// tp=8, fp=2, fn=4, tn=6
	for i := 0; i < 8; i++ {
		m.Observe(1, 1)
	}
	for i := 0; i < 2; i++ {
		m.Observe(0, 1)
	}
	for i := 0; i < 4; i++ {
		m.Observe(1, 0)
	}
	for i := 0; i < 6; i++ {
		m.Observe(0, 0)
	}
	p, r, f1 := m.PrecisionRecallF1(1)
	if math.Abs(p-0.8) > 1e-12 {
		t.Fatalf("precision = %v", p)
	}
	if math.Abs(r-8.0/12.0) > 1e-12 {
		t.Fatalf("recall = %v", r)
	}
	wantF1 := 2 * 0.8 * (8.0 / 12.0) / (0.8 + 8.0/12.0)
	if math.Abs(f1-wantF1) > 1e-12 {
		t.Fatalf("f1 = %v want %v", f1, wantF1)
	}
}

func TestPRF1UndefinedIsZero(t *testing.T) {
	m := NewConfusionMatrix(2)
	m.Observe(0, 0) // never predicts or contains class 1
	p, r, f1 := m.PrecisionRecallF1(1)
	if p != 0 || r != 0 || f1 != 0 {
		t.Fatalf("undefined PRF should be 0: %v %v %v", p, r, f1)
	}
}

func TestMacroF1(t *testing.T) {
	m := NewConfusionMatrix(2)
	// Perfect on both classes.
	m.Observe(0, 0)
	m.Observe(1, 1)
	if math.Abs(m.MacroF1()-1) > 1e-12 {
		t.Fatalf("MacroF1 = %v", m.MacroF1())
	}
}

func TestConfusionMatrixMarginalsProperty(t *testing.T) {
	// Property: total == sum of row sums == sum of col sums, and accuracy
	// in [0,1].
	if err := quick.Check(func(obs [30]uint8) bool {
		m := NewConfusionMatrix(3)
		for _, o := range obs {
			m.Observe(int(o%3), int((o/3)%3))
		}
		var rows, cols int64
		for i := range m.Cells {
			for j := range m.Cells[i] {
				rows += m.Cells[i][j]
				cols += m.Cells[j][i]
			}
		}
		acc := m.Accuracy()
		return rows == m.Total() && cols == m.Total() && acc >= 0 && acc <= 1
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestConfusionMatrixPanics(t *testing.T) {
	mustPanic(t, "size", func() { NewConfusionMatrix(0) })
	m := NewConfusionMatrix(2)
	mustPanic(t, "observe range", func() { m.Observe(2, 0) })
	mustPanic(t, "prf range", func() { m.PrecisionRecallF1(5) })
}

func TestRegressionMetrics(t *testing.T) {
	var m RegressionMetrics
	m.Observe(1, 2) // err 1
	m.Observe(3, 1) // err -2
	m.Observe(5, 5) // err 0
	if m.n != 3 {
		t.Fatalf("n = %d", m.n)
	}
	wantRMSE := math.Sqrt(5.0 / 3.0)
	if math.Abs(m.RMSE()-wantRMSE) > 1e-12 {
		t.Fatalf("RMSE = %v", m.RMSE())
	}
	if m.R2() >= 1 {
		t.Fatalf("imperfect fit has R2 = %v", m.R2())
	}
}

func TestRegressionMetricsPerfectAndEmpty(t *testing.T) {
	var m RegressionMetrics
	if m.RMSE() != 0 || m.R2() != 0 {
		t.Fatal("empty metrics should be 0")
	}
	m.Observe(2, 2)
	m.Observe(4, 4)
	if m.R2() != 1 {
		t.Fatalf("perfect R2 = %v", m.R2())
	}
	// Constant target, imperfect: 0 by convention.
	var c RegressionMetrics
	c.Observe(1, 2)
	c.Observe(1, 2)
	if c.R2() != 0 {
		t.Fatalf("constant-target R2 = %v", c.R2())
	}
}
