package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/learner"
)

// Executor is the seam between the bandit loop and step execution. The
// loop keeps everything that decides *what* to do next — policy, group
// cursors, learner, reward, holdout evaluation, budgets, early stopping —
// and delegates everything that *does* it: fetching an input from the
// corpus and running feature code over it. The split is what lets the
// distributed runtime (internal/dist) fan execution out over sharded
// workers while the decision stream, and therefore the quality curve,
// stays byte-identical to the single-process engine: both drive the same
// loop with the same RNG substreams, and an Executor's outcomes are pure
// functions of (task, seed, input index).
type Executor interface {
	// BuildHoldout constructs the task's holdout set, tolerating per-input
	// failures exactly like Task.BuildHoldoutTolerant: each skipped input
	// is reported (the loop quarantines it) and the build only errors when
	// zero examples survive. Implementations must preserve the global
	// HoldoutIdx order for both examples and skips.
	BuildHoldout(ctx context.Context) (*learner.Holdout, []featurepipe.HoldoutSkip, error)
	// ExecuteBatch executes the inputs at store indices idxs — one arm
	// pull's batch, a batch of one at the default BatchSize; firstStep is
	// the loop's step counter for idxs[0] (idxs[j] runs as step
	// firstStep+j). Each input is read from the corpus and extracted with
	// the same isolation contract as the in-process loop: a failed read is
	// reported in StepOutcome.ReadErr, a failed or panicked extraction in
	// ExtractErr/Panicked — none of them are errors. Outcomes and errors
	// are positional, both of len(idxs): errs[j] non-nil means idxs[j]
	// could not be executed at all (a dead worker, a transport failure
	// after retries) and must not poison the rest of the batch; the loop
	// quarantines that input and charges the arm, so infrastructure loss
	// degrades exactly like data loss. The slices belong to the executor
	// and are valid until the next call.
	ExecuteBatch(ctx context.Context, firstStep int, idxs []int) (outs []StepOutcome, errs []error)
	// Stats reports execution-side tallies after the loop finishes. It is
	// called once, after the last step.
	Stats() ExecutorStats
}

// StepOutcome is everything the loop needs back from executing one input.
type StepOutcome struct {
	// InputID is the corpus input's ID (empty when the read failed).
	InputID string
	// ReadErr is the corpus-read failure, if any; when set, none of the
	// remaining fields are meaningful except ReadNanos.
	ReadErr string
	// Cost is the task cost model's charge for this input.
	Cost time.Duration
	// Res is the extraction result (zero when extraction errored).
	Res featurepipe.Result
	// ExtractErr is the extraction failure, if any; Panicked marks it as a
	// recovered panic rather than a returned error.
	ExtractErr string
	Panicked   bool
	// CacheHit reports whether the extraction was served (at least
	// partially) by the executor's extraction cache.
	CacheHit bool
	// ReadNanos and ExtractNanos are wall time measured where the work ran
	// — on a remote worker, they exclude transport time, which the loop
	// accounts to the rpc phase instead.
	ReadNanos    int64
	ExtractNanos int64
}

// ExecutorStats are execution-side tallies folded into the RunResult.
type ExecutorStats struct {
	CacheHits        int64
	CacheMisses      int64
	CacheLookupNanos int64
	// Parts breaks the run's extraction cost down by recipe part (cached
	// runs only — the cache wrapper is where per-part attribution is
	// measured). The engine emits one "part" span per entry so the cost
	// summary can group extraction time by part. The distributed
	// coordinator reports these per shard through its own spans instead
	// and leaves this empty.
	Parts []featurepipe.PartCost
}

// LocalExecutor executes steps in-process over the task's own store: the
// single-machine fast path, and the code every distributed worker reuses
// so local and remote execution cannot drift apart.
type LocalExecutor struct {
	task   *featurepipe.Task
	faults *fault.Injector
	ctrs   *featurepipe.CacheCounters
	outs   []StepOutcome // ExecuteBatch's results, reused across calls
	errs   []error
}

// NewLocalExecutor wraps the task for in-process execution: the
// extraction cache threads under everything (when non-nil), and fault
// injection wraps OUTSIDE the cache so the injection decision — a pure
// hash of (fault seed, input ID) — is taken before any cache lookup. A
// faulted run is therefore byte-identical whether the cache is off, cold
// or warm, exactly the contract the unfaulted engine keeps. The wrappers
// preserve Name/Dim/fingerprints, so callers may keep using their
// unwrapped task for model sizing and RNG derivation.
func NewLocalExecutor(task *featurepipe.Task, cache *featcache.Cache, faults *fault.Injector) *LocalExecutor {
	x := &LocalExecutor{faults: faults}
	if cache != nil {
		x.ctrs = &featurepipe.CacheCounters{}
		task = task.WithFeature(featurepipe.Cached(task.Feature, cache, x.ctrs))
	}
	x.task = task.WithFeature(featurepipe.WithFaults(task.Feature, faults))
	return x
}

// Task returns the wrapped task the executor runs — cache threaded under
// fault injection. Distributed workers use it to extract the individual
// holdout inputs they own through the exact pipeline the loop uses.
func (x *LocalExecutor) Task() *featurepipe.Task { return x.task }

func (x *LocalExecutor) BuildHoldout(context.Context) (*learner.Holdout, []featurepipe.HoldoutSkip, error) {
	return x.task.BuildHoldoutTolerant()
}

// ExecuteStep reads and extracts one input: the per-input primitive
// ExecuteBatch and the distributed workers are built from. It never
// returns an error — read and extraction failures ride in the outcome.
func (x *LocalExecutor) ExecuteStep(_ context.Context, _, idx int) (StepOutcome, error) {
	var out StepOutcome
	tRead := time.Now()
	in, readErr := ReadStoreInput(x.task.Store, idx, x.faults)
	out.ReadNanos = time.Since(tRead).Nanoseconds()
	if readErr != nil {
		out.ReadErr = readErr.Error()
		return out, nil
	}
	out.InputID = in.ID
	out.Cost = x.task.Cost.Cost(in)
	var hitsBefore int64
	if x.ctrs != nil {
		hitsBefore = x.ctrs.Hits.Load()
	}
	tExtract := time.Now()
	res, extErr, panicked := SafeExtract(x.task.Feature, in)
	out.ExtractNanos = time.Since(tExtract).Nanoseconds()
	out.Res = res
	out.Panicked = panicked
	if extErr != nil {
		out.ExtractErr = extErr.Error()
	}
	// The executor is the only goroutine touching its counters, so a hit
	// delta across the extract call attributes cleanly to this step
	// (composite features may hit on several parts; any counts).
	out.CacheHit = x.ctrs != nil && x.ctrs.Hits.Load() > hitsBefore
	return out, nil
}

// ExecuteBatch executes the inputs in order through ExecuteStep.
// In-process there is nothing to amortize at the dispatch layer — the
// batching win for local runs comes from the loop's amortized selection,
// evaluation and reward accounting.
func (x *LocalExecutor) ExecuteBatch(ctx context.Context, firstStep int, idxs []int) ([]StepOutcome, []error) {
	if cap(x.outs) < len(idxs) {
		x.outs = make([]StepOutcome, len(idxs))
		x.errs = make([]error, len(idxs))
	}
	outs, errs := x.outs[:len(idxs)], x.errs[:len(idxs)]
	for j, idx := range idxs {
		outs[j], errs[j] = x.ExecuteStep(ctx, firstStep+j, idx)
	}
	return outs, errs
}

func (x *LocalExecutor) Stats() ExecutorStats {
	if x.ctrs == nil {
		return ExecutorStats{}
	}
	return ExecutorStats{
		CacheHits:        x.ctrs.Hits.Load(),
		CacheMisses:      x.ctrs.Misses.Load(),
		CacheLookupNanos: x.ctrs.LookupNanos.Load(),
		Parts:            x.ctrs.Parts(),
	}
}

// SafeExtract runs feature code with panic isolation: the code under
// evaluation is by definition unfinished, and a panic on one input must
// cost one reward, not the run. panicked distinguishes a recovered panic
// from an ordinary extraction error — the loop quarantines the former.
func SafeExtract(f featurepipe.FeatureFunc, in *corpus.Input) (res featurepipe.Result, err error, panicked bool) {
	defer func() {
		if p := recover(); p != nil {
			res = featurepipe.Result{}
			err = fmt.Errorf("core: feature %s panicked on input %s: %v", f.Name(), in.ID, p)
			panicked = true
		}
	}()
	res, err = f.Extract(in)
	return res, err, false
}

// ReadStoreInput fetches one input from the store with panic isolation
// and corpus-read fault injection. Store implementations panic on corrupt
// records (DiskStore on a torn or garbage JSONL line); this converts that
// into a quarantinable error so one bad record costs one quarantine
// entry, not the run.
func ReadStoreInput(store corpus.Store, idx int, faults *fault.Injector) (in *corpus.Input, err error) {
	defer func() {
		if p := recover(); p != nil {
			in = nil
			err = fmt.Errorf("core: corpus read of input %d failed: %v", idx, p)
		}
	}()
	if ferr := faults.Fire(fault.SiteCorpusRead, strconv.Itoa(idx)); ferr != nil {
		return nil, ferr
	}
	return store.Get(idx), nil
}
