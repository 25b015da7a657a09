// Package workload assembles the canonical evaluation tasks — wiki entity
// extraction, song genre classification, rare-image detection — over an
// arbitrary corpus Store. It is the one definition of each task's learner,
// metric, cost model and index grouper: every front end (the zombie CLI,
// the zombie-serve HTTP service, the experiments) builds byte-identical
// tasks from the same (name, version, seed) triple.
package workload

import (
	"fmt"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

// Names lists the known task names.
func Names() []string { return []string{"wiki", "songs", "image"} }

// Build assembles the named task over the store and returns it with the
// task's default index grouper. version selects the feature-code version
// (0 = task default); the split and any grouper fitting are deterministic
// in r.
func Build(name string, store corpus.Store, version int, r *rng.RNG) (*featurepipe.Task, index.Grouper, error) {
	switch name {
	case "wiki":
		if version == 0 {
			version = 4
		}
		feature := featurepipe.NewWikiFeature(version)
		task, err := featurepipe.NewTask("wiki", store, feature,
			func(f featurepipe.FeatureFunc) learner.Model {
				// Multinomial NB over hashed token counts: incremental and
				// order-insensitive, so the bandit's skewed input order cannot
				// erase earlier learning (plain SGD forgets the rare class
				// once its groups deplete).
				return learner.NewMultinomialNB(f.Dim(), 2, 1)
			},
			learner.MetricF1, 1,
			featurepipe.CostModel{PerInput: 150 * time.Millisecond},
			featurepipe.TaskOptions{}, r)
		grouper := &index.KMeansGrouper{Vectorizer: index.NewHashedText(256), Config: index.KMeansConfig{MaxIter: 25}}
		return task, grouper, err
	case "songs":
		gen := corpus.DefaultSongConfig()
		if version == 0 {
			version = 1
		}
		feature := featurepipe.NewSongFeature(version, gen)
		task, err := featurepipe.NewTask("songs", store, feature,
			func(f featurepipe.FeatureFunc) learner.Model {
				// Gaussian NB: per-class statistics are unaffected by the
				// sampling distribution over other classes, so bandit-skewed
				// streams cannot bias the fit (a global least-squares
				// regressor, by contrast, inherits the sampling bias).
				return learner.NewGaussianNB(f.Dim(), gen.Genres, 1e-3)
			},
			learner.MetricMacroF1, 0,
			featurepipe.CostModel{PerInput: 30 * time.Millisecond},
			featurepipe.TaskOptions{}, r)
		numeric := index.NewNumeric(gen.Dim)
		numeric.FitStandardize(store)
		grouper := &index.KMeansGrouper{Vectorizer: numeric, Config: index.KMeansConfig{MaxIter: 25}}
		return task, grouper, err
	case "image":
		gen := corpus.DefaultImageConfig()
		if version == 0 {
			version = 1
		}
		feature := featurepipe.NewImageFeature(version, gen)
		task, err := featurepipe.NewTask("image", store, feature,
			func(f featurepipe.FeatureFunc) learner.Model {
				// Gaussian NB: incremental, order-insensitive, near-optimal on
				// the cluster-Gaussian descriptors.
				return learner.NewGaussianNB(f.Dim(), 2, 1e-3)
			},
			learner.MetricF1, 1,
			featurepipe.CostModel{PerInput: 400 * time.Millisecond},
			featurepipe.TaskOptions{}, r)
		numeric := index.NewNumeric(gen.Dim)
		numeric.FitStandardize(store)
		grouper := &index.KMeansGrouper{Vectorizer: numeric, Config: index.KMeansConfig{MaxIter: 25}}
		return task, grouper, err
	default:
		return nil, nil, fmt.Errorf("workload: unknown task %q (want wiki, songs, or image)", name)
	}
}
