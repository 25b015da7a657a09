package featurepipe

import (
	"testing"

	"zombie/internal/corpus"
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
// most pages produce nothing — and scoring allocates nothing.
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
	extract := func(ins []*corpus.Input) func() {
		return func() {
			if _, err := wiki.Extract(ins[next%len(ins)]); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	for _, c := range []struct {
		name string
		want float64
		op   func()
	}{
		{"wiki-v4 Extract, example produced", 3, extract(pages)},
		{"wiki-v4 Extract, nothing produced", 0, extract(background)},
		{"Holdout.Quality MultinomialNB", 0, func() { wikiHoldout.Quality(mnb) }},
		{"Holdout.Quality GaussianNB", 0, func() { songHoldout.Quality(gnb) }},
	} {
		if got := testing.AllocsPerRun(50, c.op); got != c.want {
			t.Errorf("%s: %v allocs per call, want %v", c.name, got, c.want)
		}
	}
}
