package zombie

import (
	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/learner"
)

// Synthetic corpus generators. These reproduce the statistical structure
// of the paper's evaluation datasets (Wikipedia crawl, Million Song
// Dataset, labeled images); see DESIGN.md §3 for the substitution
// rationale. All are deterministic in the supplied RNG.
type (
	// WikiConfig parameterizes the wiki-like extraction corpus.
	WikiConfig = corpus.WikiConfig
	// SongConfig parameterizes the MSD-like song corpus.
	SongConfig = corpus.SongConfig
	// ImageConfig parameterizes the rare-class image corpus.
	ImageConfig = corpus.ImageConfig
)

// OpenDiskStore opens a JSONL corpus lazily from disk (for corpora larger
// than RAM); see corpus.DiskStore.
var OpenDiskStore = corpus.OpenDiskStore

// Generator entry points and their default configurations.
var (
	DefaultWikiConfig  = corpus.DefaultWikiConfig
	DefaultSongConfig  = corpus.DefaultSongConfig
	DefaultImageConfig = corpus.DefaultImageConfig
	GenerateWiki       = corpus.GenerateWiki
	GenerateSongs      = corpus.GenerateSongs
	GenerateImages     = corpus.GenerateImages
)

// Canonical feature-code versions for the three evaluation tasks, plus
// the FuncCore embedding for user-written feature functions.
type (
	// FuncCore carries the name/dim/classes identity of a FeatureFunc;
	// embed it in custom feature code.
	FuncCore = featurepipe.FuncCore
	// WikiFeature, SongFeature and ImageFeature are the built-in
	// feature-code families.
	WikiFeature  = featurepipe.WikiFeature
	SongFeature  = featurepipe.SongFeature
	ImageFeature = featurepipe.ImageFeature
	// FaultyFeature wraps feature code with deterministic fault
	// injection, for testing pipelines against buggy code.
	FaultyFeature = featurepipe.FaultyFeature
)

// Feature-code constructors.
var (
	NewWikiFeature  = featurepipe.NewWikiFeature
	NewSongFeature  = featurepipe.NewSongFeature
	NewImageFeature = featurepipe.NewImageFeature
)

// Learners. All implement Model (incremental PartialFit, order-insensitive
// fit); the naive Bayes classifiers additionally implement PredictClass,
// the ridge regressor Predict.
type (
	// Holdout evaluates models against a fixed labeled set.
	Holdout = learner.Holdout
)

// Learner constructors.
var (
	// NewMultinomialNB returns a multinomial naive Bayes classifier.
	NewMultinomialNB = learner.NewMultinomialNB
	// NewGaussianNB returns a Gaussian naive Bayes classifier.
	NewGaussianNB = learner.NewGaussianNB
	// NewRidgeClosed returns a closed-form ridge regressor.
	NewRidgeClosed = learner.NewRidgeClosed
	// NewHoldout builds a holdout evaluator over labeled examples.
	NewHoldout = learner.NewHoldout
	// NewCompositeFeature concatenates feature functions into one.
	NewCompositeFeature = featurepipe.NewCompositeFeature
)
