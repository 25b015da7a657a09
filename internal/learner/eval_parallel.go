package learner

import "zombie/internal/parallel"

// evalChunkSize fixes the reduction granularity of parallel holdout
// evaluation. Chunk boundaries depend only on the example count — never on
// how many helpers were free — so merged results are deterministic however
// many goroutines participate.
const evalChunkSize = 256

// QualityParallel is Quality with the classification prediction pass
// shared in fixed-size chunks with whatever helper goroutines the
// process-wide budget has free (parallel.Share), and the result is
// bit-identical to Quality (integer confusion counts merge
// exactly). Everything else takes the sequential Quality: models that do
// not implement ConcurrentPredictor, holdouts too small for chunking to
// pay, and regression metrics — no Regressor here is a
// ConcurrentPredictor (RidgeClosed solves lazily at prediction time), and
// a chunked float merge would not match the sequential sum anyway.
func (h *Holdout) QualityParallel(m Model) float64 {
	if len(h.Examples) <= evalChunkSize || m.Seen() == 0 {
		return h.Quality(m)
	}
	if _, ok := m.(ConcurrentPredictor); !ok || !h.Metric.IsClassification() {
		return h.Quality(m)
	}
	c := h.classifier(m)
	// Refresh score tables here, once: each chunk writes only its own rows.
	defer prepareScores(c, h).Unlock()
	parts := parallel.ShareChunks(len(h.Examples), evalChunkSize, func(lo, hi int) *ConfusionMatrix {
		cm := getConfusion(c.NumClasses())
		observeClassified(cm, c, h, lo, hi)
		return cm
	})
	cm := parts[0]
	for _, p := range parts[1:] {
		cm.Merge(p)
		confusionPool.Put(p)
	}
	q := h.scoreClassification(cm)
	confusionPool.Put(cm)
	return q
}
