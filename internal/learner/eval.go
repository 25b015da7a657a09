package learner

import (
	"fmt"
	"sync"

	"zombie/internal/parallel"
)

// Metric selects the quality measure a Holdout evaluator reports. All
// metrics are oriented so that higher is better, which the Zombie engine's
// reward functions and early-stopping detector rely on.
type Metric int

const (
	// MetricAccuracy is classification accuracy.
	MetricAccuracy Metric = iota
	// MetricF1 is the F1 of the evaluator's Positive class — the paper's
	// headline measure for extraction tasks, where positives are rare.
	MetricF1
	// MetricMacroF1 is the unweighted mean F1 across classes.
	MetricMacroF1
	// MetricR2 is the coefficient of determination for regression.
	MetricR2
	// MetricNegRMSE is -RMSE so that higher remains better.
	MetricNegRMSE
)

// String returns the metric's table label.
func (m Metric) String() string {
	switch m {
	case MetricAccuracy:
		return "accuracy"
	case MetricF1:
		return "f1"
	case MetricMacroF1:
		return "macro-f1"
	case MetricR2:
		return "r2"
	case MetricNegRMSE:
		return "-rmse"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// IsClassification reports whether the metric applies to classifiers.
func (m Metric) IsClassification() bool {
	return m == MetricAccuracy || m == MetricF1 || m == MetricMacroF1
}

// Holdout evaluates a model against a fixed labeled example set. Zombie
// computes its learning curve — and its quality-delta rewards — by
// re-evaluating the incrementally trained model against this set as inputs
// stream in. The holdout is built once per task from ground-truth labels
// (in the paper: the engineer's labeled evaluation data) and never fed to
// the model.
type Holdout struct {
	Examples []Example
	Metric   Metric
	// Positive is the class treated as positive by MetricF1.
	Positive int
}

// NewHoldout returns an evaluator over the given examples. It panics on an
// empty example set.
func NewHoldout(examples []Example, metric Metric, positive int) *Holdout {
	if len(examples) == 0 {
		panic("learner: Holdout requires at least one example")
	}
	return &Holdout{Examples: examples, Metric: metric, Positive: positive}
}

// Quality evaluates the model and returns the configured metric, higher
// better. It panics when the metric does not match the model kind (e.g.,
// accuracy for a pure Regressor) so that misconfigured tasks fail loudly
// rather than optimizing a meaningless number. An untrained model (Seen()
// == 0) scores the metric's natural floor without touching the model.
//
// Quality keeps nothing between calls and, scoring in one block on the
// caller, allocates nothing of its own. A model scored against h again and again as it
// learns is scored through an Evaluator, which returns the same value but
// may re-score only what changed since its last pass, and shares a large
// holdout with idle cores.
func (h *Holdout) Quality(m Model) float64 { return h.quality(m, nil) }

// Evaluator scores one model against one holdout, pass after pass, and
// keeps between passes what the model's incremental pass needs of the
// holdout: a GaussianNB's per-example class sums (DESIGN §13). It has one
// owner: its passes must not overlap, and the holdout's examples must not
// change while it is in use. Every pass returns exactly what
// Holdout.Quality would.
type Evaluator struct {
	h    *Holdout
	m    Model
	rows *holdoutScores // nil until the model's first pass needs them
}

// Evaluator returns an evaluator of m against h.
func (h *Holdout) Evaluator(m Model) *Evaluator { return &Evaluator{h: h, m: m} }

// Quality scores the evaluator's model as it stands; see Holdout.Quality.
func (e *Evaluator) Quality() float64 { return e.h.quality(e.m, e) }

// evalChunkSize fixes the reduction granularity of a chunked holdout pass.
// Chunk boundaries depend only on the example count — never on how many
// helpers were free — and integer confusion counts merge exactly, so the
// result is the same however many goroutines participate.
const evalChunkSize = 256

// quality is Quality for ev, or for a one-shot pass when ev is nil. An
// evaluator's blockClassifier over more than evalChunkSize examples is
// scored in chunks shared with whatever helpers the process-wide budget
// has free (parallel.ShareChunks), which allocates per pass. Everything
// else is scored in one block on the caller: one-shot passes, the
// untrained floor, regression, small holdouts, and classifiers from
// outside this package.
func (h *Holdout) quality(m Model, ev *Evaluator) float64 {
	if m.Seen() == 0 {
		// An untrained model has nothing to predict from; report the floor
		// so learning curves start at a defined point.
		if h.Metric == MetricNegRMSE {
			return negRMSEFloor(h.Examples)
		}
		return 0
	}
	if !h.Metric.IsClassification() {
		r := h.regressor(m)
		var rm RegressionMetrics
		for _, ex := range h.Examples {
			rm.Observe(ex.Target, r.Predict(ex.Features))
		}
		return h.scoreRegression(&rm)
	}
	c := h.classifier(m)
	cm := getConfusion(c.NumClasses())
	bc, ok := c.(blockClassifier)
	switch n := len(h.Examples); {
	case !ok:
		for _, ex := range h.Examples {
			cm.Observe(ex.Class, c.PredictClass(ex.Features))
		}
	case ev == nil || n <= evalChunkSize:
		bc.prepare(ev)
		bc.observeBlock(cm, h, ev, 0, n)
	default:
		bc.prepare(ev) // once, here: a chunk writes only its own rows
		for _, part := range parallel.ShareChunks(n, evalChunkSize, func(lo, hi int) *ConfusionMatrix {
			block := getConfusion(c.NumClasses())
			bc.observeBlock(block, h, ev, lo, hi)
			return block
		}) {
			cm.Merge(part)
			confusionPool.Put(part)
		}
	}
	q := h.scoreClassification(cm)
	confusionPool.Put(cm)
	return q
}

// confusionPool recycles the per-evaluation confusion matrix. Quality runs
// once per curve point and twice per delta-reward bracket, so the per-call
// matrix used to dominate the evaluation phase's allocations. Pooled
// because many runs evaluate concurrently.
var confusionPool sync.Pool

// getConfusion returns a zeroed classes×classes matrix.
func getConfusion(classes int) *ConfusionMatrix {
	cm, _ := confusionPool.Get().(*ConfusionMatrix)
	if cm == nil || len(cm.Cells) != classes {
		return NewConfusionMatrix(classes)
	}
	cm.Reset()
	return cm
}

// blockClassifier is a Classifier that predicts from tables derived from
// its fitted state, a range of holdout examples per call: a pass refreshes
// the tables once, on the caller, then scores the holdout in one block or
// in disjoint chunks on several goroutines. Both naive Bayes families
// implement it.
type blockClassifier interface {
	Classifier
	// prepare brings the tables up to date under the model's mutex and
	// readies ev's rows for a pass; ev is nil on a one-shot pass.
	prepare(ev *Evaluator)
	// observeBlock adds one cm.Observe(ex.Class, predicted) per example of
	// h.Examples[lo:hi], predicting exactly what PredictClass would, and
	// writes at most ev's rows of those examples. prepare(ev) must have
	// run.
	observeBlock(cm *ConfusionMatrix, h *Holdout, ev *Evaluator, lo, hi int)
}

// classifier asserts the model matches the classification metric.
func (h *Holdout) classifier(m Model) Classifier {
	c, ok := m.(Classifier)
	if !ok {
		panic(fmt.Sprintf("learner: metric %v needs a Classifier, got %T", h.Metric, m))
	}
	return c
}

// regressor asserts the model matches the regression metric.
func (h *Holdout) regressor(m Model) Regressor {
	r, ok := m.(Regressor)
	if !ok {
		panic(fmt.Sprintf("learner: metric %v needs a Regressor, got %T", h.Metric, m))
	}
	return r
}

// scoreClassification extracts the configured metric from a filled matrix.
func (h *Holdout) scoreClassification(cm *ConfusionMatrix) float64 {
	switch h.Metric {
	case MetricAccuracy:
		return cm.Accuracy()
	case MetricF1:
		_, _, f1 := cm.PrecisionRecallF1(h.Positive)
		return f1
	default:
		return cm.MacroF1()
	}
}

// scoreRegression extracts the configured metric from accumulated errors.
func (h *Holdout) scoreRegression(rm *RegressionMetrics) float64 {
	if h.Metric == MetricR2 {
		return rm.R2()
	}
	return -rm.RMSE()
}

// negRMSEFloor returns -RMSE of the all-zero predictor, a defined starting
// point for regression learning curves.
func negRMSEFloor(examples []Example) float64 {
	var rm RegressionMetrics
	for _, ex := range examples {
		rm.Observe(ex.Target, 0)
	}
	return -rm.RMSE()
}
