package featurepipe

import (
	"fmt"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/learner"
	"zombie/internal/parallel"
	"zombie/internal/rng"
)

// BenchmarkWikiExtract measures the scan → hash → sparse-vector path for
// one input, the per-step cost every bandit pull pays: v1 is the narrow
// unigram space, v3 adds the marker boost, v8 the bigrams at 16384
// buckets. The pooled scratch should keep allocs/op flat regardless of
// token count.
func BenchmarkWikiExtract(b *testing.B) {
	ins := wikiInputs(b, 256, 900)
	for _, v := range []int{1, 3, 8} {
		f := NewWikiFeature(v)
		b.Run(fmt.Sprintf("v%d", v), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f.Extract(ins[i%len(ins)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHoldoutBuild measures what every run pays before its first
// pull: the tolerant build over the holdout of a 20 000-page corpus (the
// stratified tenth, 1 999 inputs), wiki v8.
func BenchmarkHoldoutBuild(b *testing.B) {
	store := corpus.NewMemStore(wikiInputs(b, 20000, 900))
	newModel := func(f FeatureFunc) learner.Model { return learner.NewMultinomialNB(f.Dim(), 2, 1) }
	task, err := NewTask("wiki", store, NewWikiFeature(8), newModel, learner.MetricF1, 1, CostModel{}, TaskOptions{}, rng.New(901))
	if err != nil {
		b.Fatal(err)
	}
	release := parallel.Hold() // as the engine's run does
	defer release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := task.BuildHoldoutTolerant(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCachedExtract measures what the extraction cache adds on top
// of feature code, for wiki v4 and a three-part wiki composite (the
// session workload's first recipe): a hit, served from memory, and a
// memory-only miss, which runs the feature code and makes the result
// resident. The miss cache is one byte large, so each of its shards holds
// a single entry, and with the 256 cycling inputs spread over every
// shard each extraction misses.
func BenchmarkCachedExtract(b *testing.B) {
	ins := wikiInputs(b, 256, 904)
	composite, err := NewCompositeFeature("combo", NewWikiFeature(2), NewWikiFeature(4), NewWikiFeature(5))
	if err != nil {
		b.Fatal(err)
	}
	open := func(cfg featcache.Config) *featcache.Cache {
		c, err := featcache.Open(cfg, ResultCodec{})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	for _, f := range []FeatureFunc{NewWikiFeature(4), composite} {
		for _, c := range []struct {
			name string
			cfg  featcache.Config
		}{
			{"hit", featcache.Config{}},
			{"miss", featcache.Config{MaxBytes: 1}},
		} {
			cf := Cached(f, open(c.cfg), &CacheCounters{})
			for _, in := range ins {
				if _, err := cf.Extract(in); err != nil {
					b.Fatal(err)
				}
			}
			b.Run(f.Name()+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := cf.Extract(ins[i%len(ins)]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
