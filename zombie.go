// Package zombie is the public API of the Zombie system, a reproduction of
// "Input selection for fast feature engineering" (Anderson & Cafarella,
// ICDE 2016).
//
// Zombie accelerates the feature-engineering inner loop — run feature code
// over a corpus, train a model, check quality, edit, repeat — by choosing
// *which* raw inputs to process next. Offline, the corpus is clustered
// into index groups by cheap generic features; online, a multi-armed
// bandit treats each group as an arm and steers processing toward groups
// whose inputs actually improve the model, stopping early once the
// learning curve plateaus.
//
// Minimal usage:
//
//	store := zombie.NewMemStore(inputs)
//	groups, _ := zombie.BuildIndex(store, zombie.IndexKMeansText, 32, 42)
//	task, _ := zombie.NewTask("mytask", store, myFeature, myModelFactory,
//	    zombie.MetricF1, 1, zombie.CostModel{}, zombie.TaskOptions{}, zombie.NewRNG(42))
//	eng, _ := zombie.NewEngine(zombie.Config{Policy: "eps-greedy:0.1",
//	    EarlyStop: zombie.EarlyStopConfig{Enabled: true}})
//	result, _ := eng.Run(task, groups)
//	fmt.Println(result.Summary())
//
// The package re-exports the system's building blocks as type aliases so
// applications only ever import "zombie"; see the examples/ directory for
// complete programs.
package zombie

import (
	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

// Raw-data surface.
type (
	// Input is one raw data object (page, song record, image descriptor).
	Input = corpus.Input
	// Truth carries ground-truth annotations used only for labeling.
	Truth = corpus.Truth
	// Store is a read-only input collection.
	Store = corpus.Store
	// MemStore is the in-memory Store.
	MemStore = corpus.MemStore
	// Kind distinguishes text from numeric payloads.
	Kind = corpus.Kind
)

// Raw-data constructors and constants.
var (
	// NewMemStore wraps a slice of inputs in a Store.
	NewMemStore = corpus.NewMemStore
	// ReadJSONL and WriteJSONL move corpora to and from disk.
	ReadJSONL  = corpus.ReadJSONL
	WriteJSONL = corpus.WriteJSONL
	// ReadJSONLTolerant skips corrupt lines (reporting each) instead of
	// aborting — the loader for corpora collected in the wild.
	ReadJSONLTolerant = corpus.ReadJSONLTolerant
)

// Payload kinds.
const (
	TextKind    = corpus.TextKind
	NumericKind = corpus.NumericKind
)

// Feature-engineering surface.
type (
	// FeatureFunc is one version of user feature code.
	FeatureFunc = featurepipe.FeatureFunc
	// FeatureResult is what feature code returns per input.
	FeatureResult = featurepipe.Result
	// CostModel simulates per-input processing expense.
	CostModel = featurepipe.CostModel
	// Task bundles corpus + feature code + learner + metric + split.
	Task = featurepipe.Task
	// TaskOptions configures NewTask.
	TaskOptions = featurepipe.TaskOptions
)

// NewTask reserves a holdout and assembles a Task; see featurepipe.NewTask.
var NewTask = featurepipe.NewTask

// Learner surface (models plug into Task.NewModel).
type (
	// Model is the minimal learner contract (incremental PartialFit).
	Model = learner.Model
	// Example is one training/evaluation example.
	Example = learner.Example
	// FeatureVector is a dense-or-sparse feature vector.
	FeatureVector = learner.FeatureVector
	// Metric selects the holdout quality measure.
	Metric = learner.Metric
)

// Metrics.
const (
	MetricAccuracy = learner.MetricAccuracy
	MetricF1       = learner.MetricF1
	MetricMacroF1  = learner.MetricMacroF1
	MetricR2       = learner.MetricR2
	MetricNegRMSE  = learner.MetricNegRMSE
)

// Vector constructors.
var (
	// DenseVec wraps a dense feature slice.
	DenseVec = learner.DenseVec
	// SparseVec wraps a sparse vector.
	SparseVec = learner.SparseVec
)

// Engine surface.
type (
	// Config parameterizes the engine (mode, policy, reward, early stop).
	Config = core.Config
	// Mode selects the input source: zombie, a scan, or the oracle.
	Mode = core.Mode
	// EarlyStopConfig tunes plateau detection.
	EarlyStopConfig = core.EarlyStopConfig
	// RewardKind selects the reward function.
	RewardKind = core.RewardKind
	// Engine runs feature-evaluation inner loops.
	Engine = core.Engine
	// Result reports one run.
	Result = core.RunResult
	// CurvePoint is one learning-curve sample.
	CurvePoint = core.CurvePoint
	// StopReason records why a run ended.
	StopReason = core.StopReason
	// ArmStat is a point-in-time view of one index group's bandit
	// statistics, as reported in Result.Arms.
	ArmStat = bandit.ArmSnapshot
)

// Modes: the bandit over index groups and the baselines it is measured
// against, all over the same loop.
const (
	ModeZombie         = core.ModeZombie
	ModeScanRandom     = core.ModeScanRandom
	ModeScanSequential = core.ModeScanSequential
	ModeOracle         = core.ModeOracle
)

// Reward kinds.
const (
	RewardUsefulness   = core.RewardUsefulness
	RewardQualityDelta = core.RewardQualityDelta
	RewardHybrid       = core.RewardHybrid
)

// Stop reasons.
const (
	StopExhausted = core.StopExhausted
	StopBudget    = core.StopBudget
	StopEarly     = core.StopEarly
)

// PolicySpec names a bandit policy for Config.Policy, e.g.
// "eps-greedy:0.1", "ucb1:1", "thompson"; see PolicySpecs for the list.
type PolicySpec = bandit.Spec

// NewEngine validates cfg and returns an engine.
func NewEngine(cfg Config) (*Engine, error) { return core.New(cfg) }

// Index surface.
type (
	// Groups is a partition of the corpus into bandit arms.
	Groups = index.Groups
	// Grouper builds index groups.
	Grouper = index.Grouper
	// Vectorizer produces cheap index features.
	Vectorizer = index.Vectorizer
)

// LoadGroups reads groups persisted with Groups.Save.
var LoadGroups = index.LoadGroups

// IndexStrategy names a built-in index-construction strategy for
// BuildIndex.
type IndexStrategy string

// Built-in index strategies.
const (
	// IndexKMeansText clusters hashed bag-of-words vectors (text corpora).
	IndexKMeansText IndexStrategy = "kmeans-text"
	// IndexKMeansTFIDF clusters hashed tf-idf vectors (text corpora).
	IndexKMeansTFIDF IndexStrategy = "kmeans-tfidf"
	// IndexKMeansNumeric clusters standardized numeric payloads.
	IndexKMeansNumeric IndexStrategy = "kmeans-numeric"
	// IndexAttribute buckets on a Meta key: "attribute:<key>".
	IndexAttribute IndexStrategy = "attribute"
	// IndexLSHText partitions text by random-hyperplane signatures over
	// hashed bags of words: one pass, no iteration, noisier groups.
	IndexLSHText IndexStrategy = "lsh-text"
	// IndexLSHNumeric is the numeric-payload LSH variant.
	IndexLSHNumeric IndexStrategy = "lsh-numeric"
	// IndexHash partitions by ID hash (uninformative baseline).
	IndexHash IndexStrategy = "hash"
	// IndexRandom deals inputs into balanced random groups.
	IndexRandom IndexStrategy = "random"
)

// BuildIndex constructs k index groups over the store using a named
// strategy. The attribute strategy takes its Meta key after a colon, e.g.
// "attribute:category". Construction is deterministic in seed.
func BuildIndex(store Store, strategy IndexStrategy, k int, seed int64) (*Groups, error) {
	g, err := index.NamedGrouper(store, string(strategy), index.KMeansConfig{})
	if err != nil {
		return nil, err
	}
	return g.Group(store, k, rng.New(seed))
}

// NewRNG returns the deterministic random source used across the system.
func NewRNG(seed int64) *rng.RNG { return rng.New(seed) }

// PolicySpecs returns example bandit-policy specs accepted by
// Config.Policy.
func PolicySpecs() []string { return bandit.KnownSpecs() }
