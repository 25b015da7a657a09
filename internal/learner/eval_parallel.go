package learner

import "zombie/internal/parallel"

// evalChunkSize fixes the reduction granularity of parallel holdout
// evaluation. Chunk boundaries depend only on the example count — never on
// the worker count — so merged results are deterministic however many
// goroutines participate.
const evalChunkSize = 256

// QualityParallel is Quality with the prediction pass fanned out over up
// to workers goroutines in fixed-size chunks. It requires a model whose
// prediction path is concurrency-safe: models that do not implement
// ConcurrentPredictor fall back to the sequential Quality, as do holdouts
// too small for chunking to pay. For classification metrics the result is
// bit-identical to Quality (integer confusion counts merge exactly); for
// regression metrics it is deterministic for any worker count (partials
// merge in chunk order) but may differ from the sequential accumulation in
// the last floating-point bits.
func (h *Holdout) QualityParallel(m Model, workers int) float64 {
	if workers <= 1 || len(h.Examples) <= evalChunkSize || m.Seen() == 0 {
		return h.Quality(m)
	}
	if _, ok := m.(ConcurrentPredictor); !ok {
		return h.Quality(m)
	}
	if h.Metric.IsClassification() {
		c := h.classifier(m)
		// Refresh score tables here, once: the chunks below only read.
		prepareScores(c)
		parts := parallel.MapChunks(workers, len(h.Examples), evalChunkSize, func(lo, hi int) *ConfusionMatrix {
			// One matrix per chunk; it outlives the chunk via the merge
			// below, so it cannot come from the pool.
			cm := NewConfusionMatrix(c.NumClasses())
			observeClassified(cm, c, h.Examples[lo:hi])
			return cm
		})
		cm := parts[0]
		for _, p := range parts[1:] {
			cm.Merge(p)
		}
		return h.scoreClassification(cm)
	}
	r := h.regressor(m)
	parts := parallel.MapChunks(workers, len(h.Examples), evalChunkSize, func(lo, hi int) *RegressionMetrics {
		var rm RegressionMetrics
		for _, ex := range h.Examples[lo:hi] {
			rm.Observe(ex.Target, r.Predict(ex.Features))
		}
		return &rm
	})
	var rm RegressionMetrics
	for _, p := range parts {
		rm.Merge(p)
	}
	return h.scoreRegression(&rm)
}
