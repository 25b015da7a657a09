package featurepipe

import (
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

// TestHotPathAllocs pins allocations per call of the two leaf operations
// every pull pays — one extraction, one full holdout scoring — for the
// wiki (sparse counts, MultinomialNB) and songs (dense, GaussianNB)
// workloads. The values are what the one-pass scanner and the prepared
// naive-Bayes tables left: an extraction that produces an example
// allocates its sparse vector (indices, values, header) and nothing else —
// BenchmarkWikiExtract's 1 alloc/op is that averaged over a corpus where
// most pages produce nothing — and scoring allocates nothing. Through
// the extraction cache, a hit allocates nothing, a composite whose parts
// all hit allocates only its assembled vector, and a memory-only miss adds
// the in-flight record, the boxed result and the resident entry to the
// extraction's own three. Encoding a dense result for the disk cache or
// the dist wire allocates the boxed result and the record, and no copy of
// the vector.
func TestHotPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	// fitted fits m on every example f extracts from ins and returns a
	// holdout over those examples, the inputs that produced them and the
	// inputs that produced nothing.
	fitted := func(f FeatureFunc, ins []*corpus.Input, m learner.Model, metric learner.Metric, positive int) (h *learner.Holdout, produced, skipped []*corpus.Input) {
		var examples []learner.Example
		for _, in := range ins {
			res, err := f.Extract(in)
			if err != nil {
				t.Fatal(err)
			}
			if res.Produced {
				m.PartialFit(res.Example)
				examples = append(examples, res.Example)
				produced = append(produced, in)
			} else {
				skipped = append(skipped, in)
			}
		}
		return learner.NewHoldout(examples, metric, positive), produced, skipped
	}
	wiki := NewWikiFeature(4)
	mnb := learner.NewMultinomialNB(wiki.Dim(), 2, 1)
	wikiHoldout, pages, background := fitted(wiki, wikiInputs(t, 400, 910), mnb, learner.MetricF1, 1)

	gen := corpus.DefaultSongConfig()
	gen.N = 400
	songs, err := corpus.GenerateSongs(gen, rng.New(911))
	if err != nil {
		t.Fatal(err)
	}
	song := NewSongFeature(1, gen)
	gnb := learner.NewGaussianNB(song.Dim(), gen.Genres, 1e-3)
	songHoldout, _, _ := fitted(song, songs, gnb, learner.MetricMacroF1, 0)

	next := 0
	extractWith := func(f FeatureFunc, ins []*corpus.Input) func() {
		return func() {
			if _, err := f.Extract(ins[next%len(ins)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	extract := func(ins []*corpus.Input) func() { return extractWith(wiki, ins) }

	// warm wraps f in a memory-only cache that has seen every page.
	warm := func(f FeatureFunc) FeatureFunc {
		cf := Cached(f, newTestCache(t), &CacheCounters{})
		for _, in := range pages {
			if _, err := cf.Extract(in); err != nil {
				t.Fatal(err)
			}
		}
		return cf
	}
	composite, err := NewCompositeFeature("combo", NewWikiFeature(2), NewWikiFeature(4), NewWikiFeature(5))
	if err != nil {
		t.Fatal(err)
	}
	// A cache one byte large holds one entry per shard, and each miss's
	// insert evicts its shard's last one: the maps never grow. The row
	// checks its counters read one miss per call.
	tiny, err := featcache.Open(featcache.Config{MaxBytes: 1}, ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	var missCalls int64
	missCounters := &CacheCounters{}
	missing := Cached(wiki, tiny, missCounters)
	missOnce := extractWith(missing, pages)
	songResult, err := song.Extract(songs[0])
	if err != nil || !songResult.Produced || songResult.Example.Features.IsSparse() {
		t.Fatalf("dense fixture: produced=%v err=%v", songResult.Produced, err)
	}
	for _, c := range []struct {
		name string
		want float64
		op   func()
	}{
		{"wiki-v4 Extract, example produced", 3, extract(pages)},
		{"wiki-v4 Extract, nothing produced", 0, extract(background)},
		{"cached wiki-v4 Extract, hit", 0, extractWith(warm(wiki), pages)},
		{"cached 3-part composite Extract, every part a hit", 3, extractWith(warm(composite), pages)},
		{"cached wiki-v4 Extract, memory-only miss", 6, func() { missCalls++; missOnce() }},
		{"ResultCodec.Encode, dense songs result", 2, func() { ResultCodec{}.Encode(songResult) }},
		{"Holdout.Quality MultinomialNB", 0, func() { wikiHoldout.Quality(mnb) }},
		{"Holdout.Quality GaussianNB", 0, func() { songHoldout.Quality(gnb) }},
	} {
		if got := testing.AllocsPerRun(50, c.op); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
	if hits, misses := missCounters.Hits.Load(), missCounters.Misses.Load(); hits != 0 || misses != missCalls {
		t.Errorf("the miss row read %d hits and %d misses over %d calls, want a miss per call", hits, misses, missCalls)
	}
}
