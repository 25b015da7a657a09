package featurepipe

import (
	"fmt"

	"zombie/internal/corpus"
	"zombie/internal/learner"
	"zombie/internal/parallel"
	"zombie/internal/rng"
)

// Task bundles everything one feature-evaluation run needs: the corpus,
// the feature-code version under evaluation, a learner factory, the
// quality metric, the cost model, and the index split between the input
// pool (what the run may process) and the reserved holdout (what quality
// is measured on).
type Task struct {
	// Name labels the task in traces and tables ("wiki", "songs", ...).
	Name string
	// Store is the raw corpus.
	Store corpus.Store
	// Feature is the feature-code version under evaluation.
	Feature FeatureFunc
	// NewModel constructs a fresh learner for a run, sized to the given
	// feature-code version (versions in a session may change feature
	// dimensionality).
	NewModel func(f FeatureFunc) learner.Model
	// Metric is the holdout quality measure; Positive is the class
	// MetricF1 treats as positive.
	Metric   learner.Metric
	Positive int
	// Cost simulates per-input processing expense.
	Cost CostModel
	// PoolIdx are the store indices a run may process; HoldoutIdx are
	// reserved for quality measurement and never processed by a run.
	PoolIdx    []int
	HoldoutIdx []int
}

// TaskOptions configures NewTask. Zero values get defaults.
type TaskOptions struct {
	// HoldoutFrac is the fraction of the corpus reserved for the quality
	// holdout (default 0.1).
	HoldoutFrac float64
	// Stratify splits the holdout stratified by ground-truth class so
	// rare classes are represented (default true via StratifyOff=false).
	StratifyOff bool
}

// NewTask reserves a holdout from the store and returns the assembled
// task. The split is deterministic in r.
func NewTask(name string, store corpus.Store, feature FeatureFunc,
	newModel func(f FeatureFunc) learner.Model, metric learner.Metric, positive int,
	cost CostModel, opts TaskOptions, r *rng.RNG) (*Task, error) {
	if store.Len() == 0 {
		return nil, fmt.Errorf("featurepipe: task %s: empty store", name)
	}
	if feature == nil || newModel == nil {
		return nil, fmt.Errorf("featurepipe: task %s: feature and model factory required", name)
	}
	frac := opts.HoldoutFrac
	if frac == 0 {
		frac = 0.1
	}
	if frac <= 0 || frac >= 1 {
		return nil, fmt.Errorf("featurepipe: task %s: HoldoutFrac %v out of (0,1)", name, frac)
	}
	pool, holdout := splitIndices(store, frac, !opts.StratifyOff, r)
	if len(holdout) == 0 {
		return nil, fmt.Errorf("featurepipe: task %s: holdout empty (store too small for frac %v)", name, frac)
	}
	return &Task{
		Name:       name,
		Store:      store,
		Feature:    feature,
		NewModel:   newModel,
		Metric:     metric,
		Positive:   positive,
		Cost:       cost,
		PoolIdx:    pool,
		HoldoutIdx: holdout,
	}, nil
}

// splitIndices partitions store indices into pool/holdout, optionally
// stratified by ground-truth class.
func splitIndices(store corpus.Store, frac float64, stratify bool, r *rng.RNG) (pool, holdout []int) {
	if !stratify {
		perm := r.Perm(store.Len())
		k := int(frac * float64(store.Len()))
		return perm[k:], perm[:k]
	}
	byClass := map[int][]int{}
	for i := 0; i < store.Len(); i++ {
		c := store.Get(i).Truth.Class
		byClass[c] = append(byClass[c], i)
	}
	classes := make([]int, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	// insertion sort for stable iteration order
	for i := 1; i < len(classes); i++ {
		for j := i; j > 0 && classes[j] < classes[j-1]; j-- {
			classes[j], classes[j-1] = classes[j-1], classes[j]
		}
	}
	for _, c := range classes {
		idx := byClass[c]
		r.ShuffleInts(idx)
		k := int(frac * float64(len(idx)))
		if k == 0 && len(idx) > 1 {
			k = 1
		}
		holdout = append(holdout, idx[:k]...)
		pool = append(pool, idx[k:]...)
	}
	r.ShuffleInts(pool)
	r.ShuffleInts(holdout)
	return pool, holdout
}

// holdoutChunkSize is how many holdout inputs one share of the build takes.
const holdoutChunkSize = 64

// HoldoutSkip records one holdout input dropped by the tolerant build:
// which input, and why its extraction failed. ExtractHoldout returns one
// per input, with an empty Reason for each input that did not fail.
type HoldoutSkip struct {
	InputID string
	Reason  string
}

// BuildHoldoutTolerant extracts holdout examples with the task's current
// feature code. It must be re-run whenever Feature changes (each session
// iteration), exactly as the paper's engineer re-featurizes the labeled
// dev set. Inputs that produce no example are skipped. It is built for a
// messy world: an input whose read or extraction fails (error or panic)
// is skipped and reported instead of aborting the build, so a handful of
// corrupt records cannot deny quality measurement for the whole run. The
// skips are returned — never swallowed — because the caller (the engine)
// must surface them as quarantined inputs. Building still fails when no
// example survives: a holdout of zero examples measures nothing. The
// extraction is ExtractHoldout over HoldoutIdx, so examples and skips
// come in HoldoutIdx order.
func (t *Task) BuildHoldoutTolerant() (*learner.Holdout, []HoldoutSkip, error) {
	results, outcomes := t.ExtractHoldout(t.HoldoutIdx)
	examples := make([]learner.Example, 0, len(t.HoldoutIdx))
	var skips []HoldoutSkip
	for i, res := range results {
		if outcomes[i].Reason != "" {
			skips = append(skips, outcomes[i])
		} else if res.Produced {
			examples = append(examples, res.Example)
		}
	}
	if len(examples) == 0 {
		return nil, skips, fmt.Errorf("featurepipe: task %s: holdout produced no examples (%d of %d inputs skipped)",
			t.Name, len(skips), len(t.HoldoutIdx))
	}
	return learner.NewHoldout(examples, t.Metric, t.Positive), skips, nil
}

// ExtractHoldout reads and extracts the store inputs at idxs, with panic
// isolation around each read and its feature code: the loop
// BuildHoldoutTolerant runs over HoldoutIdx and a distributed worker over
// the holdout inputs it owns. Chunks of idxs run on the caller plus any
// idle cores (parallel.ShareChunks), so the caller should hold a budget
// slot. It returns, in idxs order, each input's result and an outcome
// naming it: InputID is best-effort ("#<idx>" when the read itself
// failed), and Reason is non-empty exactly when the read or the
// extraction failed, leaving the result zero.
func (t *Task) ExtractHoldout(idxs []int) ([]Result, []HoldoutSkip) {
	results := make([]Result, len(idxs))
	outcomes := make([]HoldoutSkip, len(idxs))
	parallel.ShareChunks(len(idxs), holdoutChunkSize, func(lo, hi int) struct{} {
		for i := lo; i < hi; i++ {
			results[i], outcomes[i] = t.extractOne(idxs[i])
		}
		return struct{}{}
	})
	return results, outcomes
}

// extractOne is ExtractHoldout for one store index.
func (t *Task) extractOne(idx int) (res Result, out HoldoutSkip) {
	var in *corpus.Input
	defer func() {
		if p := recover(); p != nil {
			if in == nil {
				out.InputID = fmt.Sprintf("#%d", idx)
			}
			res, out.Reason = Result{}, fmt.Sprintf("panic: %v", p)
		}
	}()
	in = t.Store.Get(idx)
	out.InputID = in.ID
	res, err := t.Feature.Extract(in)
	if err != nil {
		res, out.Reason = Result{}, err.Error()
		if out.Reason == "" {
			out.Reason = "extraction failed with an empty error"
		}
	}
	return res, out
}

// PoolSet returns a membership mask over store indices: true for inputs a
// run may process. The engine uses it to skip holdout inputs when walking
// index groups (groups are built corpus-wide, once, and shared across
// tasks and sessions).
func (t *Task) PoolSet() []bool {
	mask := make([]bool, t.Store.Len())
	for _, idx := range t.PoolIdx {
		mask[idx] = true
	}
	return mask
}

// WithFeature returns a shallow copy of the task evaluating a different
// feature-code version against the same corpus, split, learner factory
// and metric — one iteration step of an engineering session.
func (t *Task) WithFeature(f FeatureFunc) *Task {
	c := *t
	c.Feature = f
	return &c
}
