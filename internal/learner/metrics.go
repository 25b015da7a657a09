package learner

import (
	"fmt"
	"math"
)

// ConfusionMatrix accumulates classification outcomes. Cell [t][p] counts
// examples of true class t predicted as class p.
type ConfusionMatrix struct {
	Cells [][]int64
}

// NewConfusionMatrix returns an empty numClasses×numClasses matrix.
func NewConfusionMatrix(numClasses int) *ConfusionMatrix {
	if numClasses <= 0 {
		panic("learner: ConfusionMatrix requires numClasses > 0")
	}
	m := &ConfusionMatrix{Cells: make([][]int64, numClasses)}
	for i := range m.Cells {
		m.Cells[i] = make([]int64, numClasses)
	}
	return m
}

// Observe records one (true, predicted) pair.
func (m *ConfusionMatrix) Observe(trueClass, predClass int) {
	n := len(m.Cells)
	if trueClass < 0 || trueClass >= n || predClass < 0 || predClass >= n {
		panic(fmt.Sprintf("learner: ConfusionMatrix.Observe(%d,%d) out of range [0,%d)", trueClass, predClass, n))
	}
	m.Cells[trueClass][predClass]++
}

// Merge folds other's counts into m. Counts are integers, so a merged
// matrix is identical to one accumulated sequentially in any order. It
// panics on a size mismatch.
func (m *ConfusionMatrix) Merge(other *ConfusionMatrix) {
	if len(m.Cells) != len(other.Cells) {
		panic(fmt.Sprintf("learner: ConfusionMatrix.Merge size mismatch: %d vs %d", len(m.Cells), len(other.Cells)))
	}
	for i := range m.Cells {
		for j := range m.Cells[i] {
			m.Cells[i][j] += other.Cells[i][j]
		}
	}
}

// Reset zeroes every cell so the matrix can be reused across evaluations
// without reallocating its rows.
func (m *ConfusionMatrix) Reset() {
	for _, row := range m.Cells {
		for j := range row {
			row[j] = 0
		}
	}
}

// Total returns the number of observations.
func (m *ConfusionMatrix) Total() int64 {
	var t int64
	for _, row := range m.Cells {
		for _, c := range row {
			t += c
		}
	}
	return t
}

// Accuracy returns the fraction of correct predictions, or 0 when empty.
func (m *ConfusionMatrix) Accuracy() float64 {
	total := m.Total()
	if total == 0 {
		return 0
	}
	var correct int64
	for i := range m.Cells {
		correct += m.Cells[i][i]
	}
	return float64(correct) / float64(total)
}

// PrecisionRecallF1 returns precision, recall, and F1 for one class
// treated as positive. An undefined ratio (zero denominator) is reported
// as 0, the usual information-extraction convention.
func (m *ConfusionMatrix) PrecisionRecallF1(class int) (precision, recall, f1 float64) {
	n := len(m.Cells)
	if class < 0 || class >= n {
		panic(fmt.Sprintf("learner: PrecisionRecallF1 class %d out of range [0,%d)", class, n))
	}
	var tp, fp, fn int64
	tp = m.Cells[class][class]
	for i := 0; i < n; i++ {
		if i != class {
			fp += m.Cells[i][class]
			fn += m.Cells[class][i]
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1
}

// MacroF1 returns the unweighted mean F1 across all classes.
func (m *ConfusionMatrix) MacroF1() float64 {
	total := 0.0
	for c := range m.Cells {
		_, _, f1 := m.PrecisionRecallF1(c)
		total += f1
	}
	return total / float64(len(m.Cells))
}

// RegressionMetrics accumulates regression outcomes online.
type RegressionMetrics struct {
	n       int
	sumErr2 float64
	// Welford over targets for R².
	meanY float64
	m2Y   float64
}

// Observe records one (true target, prediction) pair.
func (m *RegressionMetrics) Observe(target, pred float64) {
	err := pred - target
	m.sumErr2 += err * err
	m.n++
	delta := target - m.meanY
	m.meanY += delta / float64(m.n)
	m.m2Y += delta * (target - m.meanY)
}

// RMSE returns the root-mean-squared error, or 0 when empty.
func (m *RegressionMetrics) RMSE() float64 {
	if m.n == 0 {
		return 0
	}
	return math.Sqrt(m.sumErr2 / float64(m.n))
}

// R2 returns the coefficient of determination. A constant target series
// yields 1 for a perfect fit and 0 otherwise; an empty series yields 0.
func (m *RegressionMetrics) R2() float64 {
	if m.n == 0 {
		return 0
	}
	if m.m2Y == 0 {
		if m.sumErr2 == 0 {
			return 1
		}
		return 0
	}
	return 1 - m.sumErr2/m.m2Y
}
