package learner

import "zombie/internal/parallel"

// evalChunkSize fixes the reduction granularity of parallel holdout
// evaluation. Chunk boundaries depend only on the example count — never on
// the worker count — so merged results are deterministic however many
// goroutines participate.
const evalChunkSize = 256

// QualityParallel is Quality with the classification prediction pass
// fanned out over up to workers goroutines in fixed-size chunks, and the
// result is bit-identical to Quality (integer confusion counts merge
// exactly). Everything else takes the sequential Quality: models that do
// not implement ConcurrentPredictor, holdouts too small for chunking to
// pay, and regression metrics — no Regressor here is a
// ConcurrentPredictor (RidgeClosed solves lazily at prediction time), and
// a chunked float merge would not match the sequential sum anyway.
func (h *Holdout) QualityParallel(m Model, workers int) float64 {
	if workers <= 1 || len(h.Examples) <= evalChunkSize || m.Seen() == 0 {
		return h.Quality(m)
	}
	if _, ok := m.(ConcurrentPredictor); !ok || !h.Metric.IsClassification() {
		return h.Quality(m)
	}
	c := h.classifier(m)
	// Refresh score tables here, once: the chunks below only read.
	prepareScores(c)
	parts := parallel.MapChunks(workers, len(h.Examples), evalChunkSize, func(lo, hi int) *ConfusionMatrix {
		// One matrix per chunk; it outlives the chunk via the merge below,
		// so it cannot come from the pool.
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
