package index

import (
	"math"

	"zombie/internal/corpus"
	"zombie/internal/linalg"
	"zombie/internal/parallel"
)

// TFIDF is a hashed tf-idf vectorizer: tokens hash into dim buckets, and
// each bucket's term frequency is reweighted by the inverse document
// frequency fitted over a corpus. Compared to plain HashedText it
// suppresses background vocabulary (the Zipf head every page shares) so
// the k-means index groups align with topical — and therefore relevance —
// structure rather than with page length or stopword mix.
type TFIDF struct {
	dim int
	idf []float64
}

// NewTFIDF returns an unfitted hashed tf-idf vectorizer with the given
// bucket count. It panics if dim <= 0.
func NewTFIDF(dim int) *TFIDF {
	if dim <= 0 {
		panic("index: TFIDF dim must be > 0")
	}
	return &TFIDF{dim: dim}
}

// Fit computes smoothed inverse document frequencies over the store:
// idf(b) = ln((1+N)/(1+df(b))) + 1. Non-text inputs are skipped.
func (v *TFIDF) Fit(store corpus.Store) {
	v.FitParallel(store, 1)
}

// fitChunkSize fixes the granularity of parallel document-frequency
// accumulation. Chunk boundaries depend only on the store size, and the
// per-chunk counts are integers, so the merged frequencies — and the
// fitted idf weights — are bit-identical for any worker count.
const fitChunkSize = 256

// dfPartial is one chunk's document-frequency contribution.
type dfPartial struct {
	df   []int
	docs int
}

// FitParallel is Fit with the document pass fanned out over up to workers
// goroutines; Fit delegates here with workers = 1. The store must be safe
// for concurrent Get when workers > 1 (corpus.MemStore is read-only).
func (v *TFIDF) FitParallel(store corpus.Store, workers int) {
	dim := uint32(v.dim)
	partials := parallel.MapChunks(workers, store.Len(), fitChunkSize, func(lo, hi int) dfPartial {
		p := dfPartial{df: make([]int, v.dim)}
		seen := make([]bool, v.dim)
		for i := lo; i < hi; i++ {
			in := store.Get(i)
			if in.Kind != corpus.TextKind {
				continue
			}
			p.docs++
			for b := range seen {
				seen[b] = false
			}
			for sc := (TokenScanner{Text: in.Text}); sc.Next(); {
				seen[sc.Hash%dim] = true
			}
			for b, s := range seen {
				if s {
					p.df[b]++
				}
			}
		}
		return p
	})
	df := make([]int, v.dim)
	docs := 0
	for _, p := range partials {
		docs += p.docs
		for b, n := range p.df {
			df[b] += n
		}
	}
	v.idf = make([]float64, v.dim)
	for b := range v.idf {
		v.idf[b] = math.Log((1+float64(docs))/(1+float64(df[b]))) + 1
	}
}

// Vectorize implements Vectorizer. It panics if called before Fit, since
// silently returning raw term frequencies would defeat the vectorizer's
// purpose. Non-text inputs vectorize to zeros.
func (v *TFIDF) Vectorize(in *corpus.Input) []float64 {
	if v.idf == nil {
		panic("index: TFIDF.Vectorize before Fit")
	}
	out := make([]float64, v.dim)
	if in.Kind != corpus.TextKind {
		return out
	}
	dim := uint32(v.dim)
	for sc := (TokenScanner{Text: in.Text}); sc.Next(); {
		out[sc.Hash%dim]++
	}
	for b := range out {
		if out[b] > 0 {
			out[b] = (1 + math.Log(out[b])) * v.idf[b] // sublinear tf
		}
	}
	linalg.Normalize(out)
	return out
}

// Dim implements Vectorizer.
func (v *TFIDF) Dim() int { return v.dim }

// Name implements Vectorizer.
func (v *TFIDF) Name() string { return "tfidf" }
