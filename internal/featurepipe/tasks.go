package featurepipe

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"

	"zombie/internal/corpus"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/linalg"
)

// WikiFeature is the extraction-task feature code over wiki-like pages:
// it detects candidate pages by their entity-marker tokens and emits a
// hashed bag-of-words example labeled by ground truth (standing in for
// the engineer's distant supervision). Successive versions widen the hash
// space, boost the marker signal, and add bigrams — the kind of small
// iterative changes the paper's engineer makes between evaluation runs.
type WikiFeature struct {
	FuncCore
	// MarkerBoost multiplies the weight of entity-marker tokens.
	MarkerBoost float64
	// Bigrams adds hashed token bigrams to the feature space.
	Bigrams bool
	// NegSamplePct is the percentage (0-100) of marker-free pages that
	// still emit a negative example, keyed deterministically off the
	// input ID.
	NegSamplePct int
}

// NewWikiFeature returns the canonical version-v wiki feature code
// (v in [1,8]); quality improves with v. It panics on other versions.
func NewWikiFeature(v int) *WikiFeature {
	specs := map[int]*WikiFeature{
		1: {FuncCore: FuncCore{FuncDim: 256}, MarkerBoost: 1},
		2: {FuncCore: FuncCore{FuncDim: 1024}, MarkerBoost: 1},
		3: {FuncCore: FuncCore{FuncDim: 1024}, MarkerBoost: 3},
		4: {FuncCore: FuncCore{FuncDim: 4096}, MarkerBoost: 3},
		5: {FuncCore: FuncCore{FuncDim: 4096}, MarkerBoost: 3, Bigrams: true},
		6: {FuncCore: FuncCore{FuncDim: 8192}, MarkerBoost: 5, Bigrams: true},
		7: {FuncCore: FuncCore{FuncDim: 16384}, MarkerBoost: 5, Bigrams: true},
		8: {FuncCore: FuncCore{FuncDim: 16384}, MarkerBoost: 8, Bigrams: true},
	}
	f, ok := specs[v]
	if !ok {
		panic(fmt.Sprintf("featurepipe: no canonical wiki feature version %d", v))
	}
	f.FuncName = fmt.Sprintf("wiki-v%d", v)
	f.Classes = 2
	f.NegSamplePct = 25
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}

// wikiMarkers are the lowercase entity markers, each beside the FNV-1a
// state the scanner reports for it. A token is recognised by comparing
// its Hash against these five, and the hash only nominates: the token's
// lowercased bytes must equal the marker's, so a colliding token is
// never boosted.
var wikiMarkers = func() []wikiMarker {
	ms := make([]wikiMarker, len(corpus.EntityMarkers))
	for i, w := range corpus.EntityMarkers {
		sc := index.TokenScanner{Text: w}
		sc.Next()
		ms[i] = wikiMarker{word: strings.ToLower(w), hash: sc.Hash}
	}
	return ms
}()

type wikiMarker struct {
	word string
	hash uint32
}

// isMarker reports whether the scanner's current token is an entity
// marker. strings.ToLower returns its argument, unallocated, for the
// already-lowercase ASCII the corpus is made of.
func isMarker(sc *index.TokenScanner) bool {
	for i := range wikiMarkers {
		if sc.Hash == wikiMarkers[i].hash && strings.ToLower(sc.Text[sc.Start:sc.End]) == wikiMarkers[i].word {
			return true
		}
	}
	return false
}

// hasMarker reports whether any token of text is an entity marker.
func hasMarker(text string) bool {
	for sc := (index.TokenScanner{Text: text}); sc.Next(); {
		if isMarker(&sc) {
			return true
		}
	}
	return false
}

// wikiScratch is the reusable accumulation buffer behind WikiFeature
// extraction: a dense bucket array standing in for a per-call
// map[int]float64, plus a bitmap of the buckets touched, so emitting the
// vector in index order and resetting the buffer are one walk over
// FuncDim/64 words instead of a sort. Pooled because extraction runs
// concurrently (parallel holdout builds, distributed workers sharing a
// process).
type wikiScratch struct {
	dense   []float64
	touched []uint64
}

var wikiScratchPool = sync.Pool{New: func() any { return new(wikiScratch) }}

// getWikiScratch returns a scratch whose dense buffer and bitmap cover dim
// and are all zeros — freshly grown buffers come zeroed from make, reused
// ones were reset by sparse before Put.
func getWikiScratch(dim int) *wikiScratch {
	s := wikiScratchPool.Get().(*wikiScratch)
	if len(s.dense) < dim {
		s.dense = make([]float64, dim)
		s.touched = make([]uint64, (dim+63)/64)
	}
	return s
}

// add accumulates weight w into bucket h. Accumulation order is the
// caller's token order — the order a map-based accumulator would sum in,
// so the per-bucket floating-point totals are bit-identical to one.
func (s *wikiScratch) add(h uint32, w float64) {
	s.dense[h] += w
	s.touched[h>>6] |= 1 << (h & 63)
}

// sparse builds the exact-size Sparse vector from the accumulated buckets
// and leaves the scratch zeroed: it walks the bitmap in word order, which
// is index order, skips buckets that ended at zero (NewSparse drops those
// too), and hands the slices to SparseFromOrdered — one allocation each
// for Idx and Val, nothing else.
func (s *wikiScratch) sparse(dim int) *linalg.Sparse {
	words := s.touched[:(dim+63)/64]
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	idx := make([]int, n)
	val := make([]float64, n)
	n = 0
	for k, w := range words {
		for ; w != 0; w &= w - 1 {
			h := k<<6 | bits.TrailingZeros64(w)
			if x := s.dense[h]; x != 0 {
				idx[n], val[n] = h, x
				s.dense[h] = 0
				n++
			}
		}
		words[k] = 0
	}
	return linalg.SparseFromOrdered(dim, idx[:n], val[:n])
}

// Extract implements FeatureFunc.
func (f *WikiFeature) Extract(in *corpus.Input) (Result, error) {
	if in.Kind != corpus.TextKind {
		return Result{}, fmt.Errorf("featurepipe: %s: input %s is not text", f.FuncName, in.ID)
	}
	// A page with no candidate on it sometimes still emits a plain negative
	// so the learner sees background pages; deterministic via the ID hash.
	if index.HashToken(in.ID, 100) >= f.NegSamplePct && !hasMarker(in.Text) {
		return Result{}, nil
	}
	scratch := getWikiScratch(f.FuncDim)
	dim := uint32(f.FuncDim)
	for sc := (index.TokenScanner{Text: in.Text}); sc.Next(); {
		w := 1.0
		if isMarker(&sc) {
			w = f.MarkerBoost
		}
		scratch.add(sc.Hash%dim, w)
		if f.Bigrams && sc.N > 1 {
			scratch.add(sc.Pair%dim, 1)
		}
	}
	vec := scratch.sparse(f.FuncDim)
	wikiScratchPool.Put(scratch)
	ex := learner.Example{
		Features: learner.SparseVec(vec),
		Class:    in.Truth.Class,
	}
	return Result{Example: ex, Produced: true, Useful: in.Truth.Class == 1}, nil
}

// SongFeature is the genre-classification feature code over song records:
// the raw timbre vector, optionally augmented with squared terms (a later
// "version" an engineer might try). Usefulness marks examples of the rare
// genre half — the examples macro-F1 is starved for.
type SongFeature struct {
	FuncCore
	// Squares appends per-dimension squared features.
	Squares bool
	// Genres is the total number of genres (classes).
	Genres  int
	baseDim int
}

// NewSongFeature returns the version-v song feature code (v in [1,2]) for
// corpora generated with the given SongConfig dimensions.
func NewSongFeature(v int, cfg corpus.SongConfig) *SongFeature {
	f := &SongFeature{Genres: cfg.Genres, baseDim: cfg.Dim}
	dim := cfg.Dim
	switch v {
	case 1:
	case 2:
		f.Squares = true
		dim = 2 * cfg.Dim
	default:
		panic(fmt.Sprintf("featurepipe: no canonical song feature version %d", v))
	}
	f.FuncCore = FuncCore{
		FuncName: fmt.Sprintf("song-v%d", v),
		FuncDim:  dim,
		Classes:  cfg.Genres,
	}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}

// Extract implements FeatureFunc.
func (f *SongFeature) Extract(in *corpus.Input) (Result, error) {
	if in.Kind != corpus.NumericKind || len(in.Values) != f.baseDim {
		return Result{}, fmt.Errorf("featurepipe: %s: input %s has wrong payload", f.FuncName, in.ID)
	}
	vals := make([]float64, 0, f.FuncDim)
	vals = append(vals, in.Values...)
	if f.Squares {
		for _, x := range in.Values {
			vals = append(vals, x*x)
		}
	}
	ex := learner.Example{
		Features: learner.DenseVec(vals),
		Class:    in.Truth.Class,
		Target:   in.Truth.Target,
	}
	// Rare-genre examples are the useful ones: Zipf popularity makes the
	// upper half of genre indices scarce.
	useful := in.Truth.Class >= f.Genres/2
	return Result{Example: ex, Produced: true, Useful: useful}, nil
}

// ImageFeature is the rare-class detection feature code over image
// descriptors. Useful inputs are the positives the detector is starving
// for (the paper's strongest speedup regime).
type ImageFeature struct {
	FuncCore
	baseDim int
	// Normalize L2-normalizes descriptors (the engineer's v2 tweak).
	Normalize bool
	// Squares appends per-dimension squared terms (the engineer's v3
	// change), which lets a linear model express spherical boundaries —
	// exactly what a compact rare class needs.
	Squares bool
}

// NewImageFeature returns the version-v image feature code (v in [1,3])
// for corpora generated with the given ImageConfig dimensions.
func NewImageFeature(v int, cfg corpus.ImageConfig) *ImageFeature {
	f := &ImageFeature{baseDim: cfg.Dim}
	dim := cfg.Dim
	switch v {
	case 1:
	case 2:
		f.Normalize = true
	case 3:
		f.Squares = true
		dim = 2 * cfg.Dim
	default:
		panic(fmt.Sprintf("featurepipe: no canonical image feature version %d", v))
	}
	f.FuncCore = FuncCore{
		FuncName: fmt.Sprintf("image-v%d", v),
		FuncDim:  dim,
		Classes:  2,
	}
	if err := f.Validate(); err != nil {
		panic(err)
	}
	return f
}

// Extract implements FeatureFunc.
func (f *ImageFeature) Extract(in *corpus.Input) (Result, error) {
	if in.Kind != corpus.NumericKind || len(in.Values) != f.baseDim {
		return Result{}, fmt.Errorf("featurepipe: %s: input %s has wrong payload", f.FuncName, in.ID)
	}
	vals := make([]float64, 0, f.FuncDim)
	vals = append(vals, in.Values...)
	if f.Normalize {
		linalg.Normalize(vals)
	}
	if f.Squares {
		for _, x := range in.Values {
			vals = append(vals, x*x)
		}
	}
	ex := learner.Example{
		Features: learner.DenseVec(vals),
		Class:    in.Truth.Class,
	}
	return Result{Example: ex, Produced: true, Useful: in.Truth.Class == 1}, nil
}
