// Package dist scales the zombie inner loop across sharded corpus
// workers. A Coordinator owns everything the paper's algorithm decides —
// the bandit policy over index groups, the learner, holdout evaluation,
// the quality curve, budgets — and fans the per-input work (corpus read,
// feature extraction) out to Workers, each owning a deterministic shard
// of the corpus, over a pluggable Transport (in-process channels or
// JSON/HTTP against zombie-serve).
//
// The headline invariant is determinism: the same seed and shard map
// produce a byte-identical quality curve at any worker count and over
// either transport, equal to the single-process engine's. It holds by
// construction, not by luck: the coordinator drives the unchanged
// core.Engine loop (same RNG substreams, same policy, same merge order)
// through the core.Executor seam, and everything a worker computes is a
// pure function of (corpus, task, feature version, seed, input index).
// Centralizing arm selection while fanning out execution is the same
// shape DBA bandits (arXiv:2010.09208) argue for; the (worker, group)
// execution grain shows up in per-worker stats and metrics rather than in
// the policy's arm space, precisely so the arm space — and therefore the
// curve — cannot depend on the shard count.
package dist

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"zombie/internal/core"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/parallel"
)

// Spec parameterizes one distributed run. The (Corpus, Task,
// FeatureVersion, Seed) quadruple is the task identity every worker
// rebuilds independently; FaultSpec/FaultSeed ship the run's fault plan
// to the workers (injection decisions are pure hashes, so every worker
// and the coordinator agree on them).
type Spec struct {
	RunID          string
	Corpus         string
	Task           string
	FeatureVersion int
	Seed           int64
	Shards         int
	FaultSpec      string
	FaultSeed      int64
	// Obs receives coordinator-side metrics (dist_rpc_seconds{method});
	// nil for none.
	Obs *obs.Registry
	// Tracer receives the run's spans (nil for no tracing). The
	// coordinator opens one "dist.<method>" rpc span per worker call —
	// parented under the engine's batch/holdout span when the call context
	// carries one — propagates it as a traceparent on the request, and
	// stitches the worker's returned spans underneath it, so the span tree
	// covers both sides of every RPC. Purely observational: the curve,
	// arms, and quarantine lists are byte-identical with or without it.
	Tracer *otrace.Tracer
	// Attempts and Backoff tune the per-call retry loop (defaults 3 and
	// 25ms; backoff doubles per attempt).
	Attempts int
	Backoff  time.Duration
}

// WorkerStats summarizes one worker's share of a run.
type WorkerStats struct {
	Shard        int   `json:"shard"`
	Inputs       int   `json:"inputs"`
	Holdout      int   `json:"holdout"`
	Steps        int   `json:"steps"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	FailedCalls  int64 `json:"failed_calls"`
	RetriedCalls int64 `json:"retried_calls"`
	// Parts is the shard's per-recipe-part extraction cost breakdown
	// (cached workers only), reported at finish.
	Parts []featurepipe.PartCost `json:"parts,omitempty"`
}

// Result is a distributed run's outcome: the engine result (byte-equal to
// a single-process run of the same spec) plus the distribution-side view.
type Result struct {
	*core.RunResult
	Transport string        `json:"transport"`
	Workers   []WorkerStats `json:"workers"`
	Map       *ShardMap     `json:"-"`
}

// Run executes one distributed run: initialize every worker's shard view,
// then drive eng's unchanged loop with a coordinator executor that routes
// each step to the owning worker. task and groups are the coordinator's
// own (unwrapped) task and index groups — identical to what a
// single-process run would use, which is what makes the curves
// comparable byte-for-byte.
func Run(ctx context.Context, eng *core.Engine, tr Transport, spec Spec, task *featurepipe.Task, groups *index.Groups) (*Result, error) {
	c, err := newCoordinator(tr, spec, task)
	if err != nil {
		return nil, err
	}
	if err := c.init(ctx); err != nil {
		return nil, err
	}
	res, runErr := eng.RunWithExecutor(ctx, task, groups, c)
	// Always finish: workers must release run state even when the run
	// errored, and the stats are worth having on partial results too.
	c.finish(context.WithoutCancel(ctx))
	if runErr != nil {
		return nil, runErr
	}
	return &Result{RunResult: res, Transport: tr.Name(), Workers: c.workers, Map: c.sm}, nil
}

// coordinator implements core.Executor over a Transport and a ShardMap.
type coordinator struct {
	spec    Spec
	clients []Client
	task    *featurepipe.Task
	sm      *ShardMap
	workers []WorkerStats

	// rpc holds the per-method latency histograms, keyed by the wire
	// method name withRetry is called with; empty when Obs is nil.
	rpc map[string]*obs.Histogram

	finishOnce sync.Once
	stats      core.ExecutorStats
}

func newCoordinator(tr Transport, spec Spec, task *featurepipe.Task) (*coordinator, error) {
	if spec.RunID == "" {
		return nil, fmt.Errorf("dist: empty run ID")
	}
	clients := tr.Clients()
	if spec.Shards <= 0 {
		spec.Shards = len(clients)
	}
	if len(clients) != spec.Shards {
		return nil, fmt.Errorf("dist: transport has %d workers for %d shards", len(clients), spec.Shards)
	}
	if spec.Attempts <= 0 {
		spec.Attempts = 3
	}
	if spec.Backoff <= 0 {
		spec.Backoff = 25 * time.Millisecond
	}
	sm, err := NewShardMap(task.Store.Len(), spec.Shards, spec.Seed)
	if err != nil {
		return nil, err
	}
	c := &coordinator{spec: spec, clients: clients, task: task, sm: sm, rpc: map[string]*obs.Histogram{}}
	if spec.Obs != nil {
		const name, help = "dist_rpc_seconds", "Coordinator-side worker call latency by method."
		for _, method := range []string{"init", "holdout", "step-batch", "finish"} {
			c.rpc[method] = spec.Obs.HistogramL(name, help, "method", method, obs.LatencyBuckets)
		}
	}
	return c, nil
}

// withRetry runs call up to Attempts times with doubling backoff,
// recording latency per attempt and counting errored attempts under
// dist_rpc_errors{method,worker}. It returns the last error unchanged —
// deterministic worker errors must surface with identical text over any
// transport.
func (c *coordinator) withRetry(ctx context.Context, method string, shard int, call func(context.Context) error) error {
	h := c.rpc[method]
	backoff := c.spec.Backoff
	var err error
	for attempt := 0; attempt < c.spec.Attempts; attempt++ {
		if attempt > 0 {
			c.workers[shard].RetriedCalls++
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return ctx.Err()
			}
			backoff *= 2
		}
		t := time.Now()
		err = call(ctx)
		if h != nil {
			h.Observe(time.Since(t).Seconds())
		}
		if err == nil {
			return nil
		}
		c.noteRPCError(method, shard)
		if ctx.Err() != nil {
			return err
		}
	}
	c.workers[shard].FailedCalls++
	return err
}

// noteRPCError bumps the errored-attempt counter for one (method, worker)
// pair. Series are declared on first error — declaration is idempotent
// and this is far off the hot path — so a clean run exports no error
// series at all.
func (c *coordinator) noteRPCError(method string, shard int) {
	if c.spec.Obs == nil {
		return
	}
	c.spec.Obs.CounterL("dist_rpc_errors",
		"Errored coordinator-side worker call attempts by method and worker.",
		obs.Label{Key: "method", Value: method},
		obs.Label{Key: "worker", Value: strconv.Itoa(shard)},
	).Inc()
}

// startRPC opens one rpc span for a worker call, parented under the span
// the call context carries (the engine stamps its batch and holdout spans
// there) or at the root for out-of-loop calls (init, finish). Returns the
// tracer to propagate/import with and the span handle; both nil when
// tracing is off.
func (c *coordinator) startRPC(ctx context.Context, name string, shard int) (*otrace.Tracer, *otrace.SpanRef) {
	tr, parent := otrace.FromContext(ctx)
	if tr == nil {
		tr = c.spec.Tracer
	}
	if tr == nil {
		return nil, nil
	}
	return tr, tr.Start(parent, name, otrace.Int("shard", int64(shard)))
}

// init computes the shard map, fans InitRequests out to every worker, and
// cross-checks each worker's corpus size against the coordinator's — a
// disagreement means the processes mounted different artifacts and the
// shard maps would silently diverge.
func (c *coordinator) init(ctx context.Context) error {
	n := c.task.Store.Len()
	c.workers = make([]WorkerStats, c.spec.Shards)
	for i := range c.workers {
		c.workers[i].Shard = i
	}
	resps := make([]InitResponse, c.spec.Shards)
	errs := make([]error, c.spec.Shards)
	parallel.ForEach(c.spec.Shards, c.spec.Shards, func(i int) {
		req := InitRequest{
			RunID:          c.spec.RunID,
			Corpus:         c.spec.Corpus,
			Task:           c.spec.Task,
			FeatureVersion: c.spec.FeatureVersion,
			Seed:           c.spec.Seed,
			Shards:         c.spec.Shards,
			Shard:          i,
			FaultSpec:      c.spec.FaultSpec,
			FaultSeed:      c.spec.FaultSeed,
		}
		tr, ref := c.startRPC(ctx, "dist.init", i)
		req.Traceparent = tr.Traceparent(ref.ID())
		errs[i] = c.withRetry(ctx, "init", i, func(ctx context.Context) error {
			resp, err := c.clients[i].Init(ctx, req)
			if err == nil {
				resps[i] = resp
			}
			return err
		})
		ref.End()
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("dist: init worker %d: %w", i, err)
		}
		if resps[i].StoreLen != n {
			return fmt.Errorf("dist: worker %d sees %d corpus inputs, coordinator sees %d (different artifacts?)",
				i, resps[i].StoreLen, n)
		}
		c.workers[i].Inputs = resps[i].OwnedInputs
		c.workers[i].Holdout = resps[i].OwnedHoldout
	}
	return nil
}

// BuildHoldout fans holdout extraction out to every worker and merges the
// per-shard streams back in the task's global HoldoutIdx order — the
// ordered-merge discipline that keeps the merged example list (and skip
// list) byte-identical to a single-process BuildHoldoutTolerant.
func (c *coordinator) BuildHoldout(ctx context.Context) (*learner.Holdout, []featurepipe.HoldoutSkip, error) {
	resps := make([]HoldoutResponse, c.spec.Shards)
	errs := make([]error, c.spec.Shards)
	parallel.ForEach(c.spec.Shards, c.spec.Shards, func(i int) {
		tr, ref := c.startRPC(ctx, "dist.holdout", i)
		req := HoldoutRequest{RunID: c.spec.RunID, Traceparent: tr.Traceparent(ref.ID())}
		errs[i] = c.withRetry(ctx, "holdout", i, func(ctx context.Context) error {
			resp, err := c.clients[i].Holdout(ctx, req)
			if err == nil {
				resps[i] = resp
			}
			return err
		})
		tr.Import(resps[i].Spans, ref.ID(), ref.ID())
		ref.End()
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("dist: holdout from worker %d: %w", i, err)
		}
	}
	// Workers report items sorted by global index; a per-shard map lets
	// the merge walk HoldoutIdx in the task's (shuffled) order while
	// verifying every owned index was actually reported.
	byIdx := make([]map[int]*HoldoutItem, c.spec.Shards)
	for s := range resps {
		byIdx[s] = make(map[int]*HoldoutItem, len(resps[s].Items))
		for j := range resps[s].Items {
			it := &resps[s].Items[j]
			byIdx[s][it.Idx] = it
		}
	}
	examples := make([]learner.Example, 0, len(c.task.HoldoutIdx))
	var skips []featurepipe.HoldoutSkip
	for _, idx := range c.task.HoldoutIdx {
		s := c.sm.Owner(idx)
		it, ok := byIdx[s][idx]
		if !ok {
			return nil, nil, fmt.Errorf("dist: worker %d did not report holdout input %d (shard views disagree)", s, idx)
		}
		if it.Skip != "" {
			skips = append(skips, featurepipe.HoldoutSkip{InputID: it.InputID, Reason: it.Skip})
			continue
		}
		if it.Result.Produced {
			examples = append(examples, it.Result.Example)
		}
	}
	if len(examples) == 0 {
		return nil, skips, fmt.Errorf("dist: task %s: holdout produced no examples (%d of %d inputs skipped)",
			c.task.Name, len(skips), len(c.task.HoldoutIdx))
	}
	return learner.NewHoldout(examples, c.task.Metric, c.task.Positive), skips, nil
}

// ExecuteBatch groups the batch by owning shard and sends ONE StepBatch
// per shard — for a batch of K inputs over S shards that is at most
// min(K, S) round trips instead of K, which is the distributed payoff of
// Config.BatchSize. Shard calls run concurrently (like real workers
// serving independent requests); outcomes are reassembled positionally.
// Only a whole call is retried: a shard whose call still fails after the
// retry budget (transport loss, non-200, unknown run) errors each of its
// items, while a failure the worker reports for one item comes back
// in-band and is final. Either way the engine loop quarantines the input
// and charges the arm, so a dead worker degrades exactly like a corrupt
// shard and eventually trips the failure budget.
func (c *coordinator) ExecuteBatch(ctx context.Context, firstStep int, idxs []int) ([]core.StepOutcome, []error) {
	outs := make([]core.StepOutcome, len(idxs))
	errs := make([]error, len(idxs))
	// Group batch positions by owner, owners in first-seen (batch) order.
	var owners []int
	positions := map[int][]int{}
	for p, idx := range idxs {
		owner := c.sm.Owner(idx)
		if owner < 0 {
			errs[p] = fmt.Errorf("dist: step %d: input %d outside the shard map", firstStep+p, idx)
			continue
		}
		if _, seen := positions[owner]; !seen {
			owners = append(owners, owner)
		}
		positions[owner] = append(positions[owner], p)
	}
	parallel.ForEach(len(owners), len(owners), func(i int) {
		owner := owners[i]
		ps := positions[owner]
		req := StepBatchRequest{
			RunID: c.spec.RunID,
			Steps: make([]int, len(ps)),
			Idxs:  make([]int, len(ps)),
		}
		for j, p := range ps {
			req.Steps[j] = firstStep + p
			req.Idxs[j] = idxs[p]
		}
		tr, ref := c.startRPC(ctx, "dist.step_batch", owner)
		req.Traceparent = tr.Traceparent(ref.ID())
		var resp StepBatchResponse
		err := c.withRetry(ctx, "step-batch", owner, func(ctx context.Context) error {
			r, err := c.clients[owner].StepBatch(ctx, req)
			if err == nil {
				resp = r
			}
			return err
		})
		tr.Import(resp.Spans, ref.ID(), ref.ID())
		ref.End()
		if err == nil && len(resp.Items) != len(ps) {
			err = fmt.Errorf("dist: worker %d returned %d outcomes for %d batched steps", owner, len(resp.Items), len(ps))
		}
		if err != nil {
			for j, p := range ps {
				errs[p] = fmt.Errorf("dist: worker %d failed step %d (input %d): %v", owner, req.Steps[j], req.Idxs[j], err)
			}
			return
		}
		for j, p := range ps {
			it := &resp.Items[j]
			if it.Err != "" {
				errs[p] = fmt.Errorf("dist: worker %d failed step %d (input %d): %v", owner, req.Steps[j], req.Idxs[j], it.Err)
				continue
			}
			c.workers[owner].Steps++
			outs[p] = core.StepOutcome{
				InputID:      it.InputID,
				ReadErr:      it.ReadErr,
				Cost:         time.Duration(it.CostNanos),
				Res:          it.Result,
				ExtractErr:   it.ExtractErr,
				Panicked:     it.Panicked,
				CacheHit:     it.CacheHit,
				ReadNanos:    it.ReadNanos,
				ExtractNanos: it.ExtractNanos,
			}
		}
	})
	return outs, errs
}

// Stats collects worker tallies, finishing the run on every worker the
// first time it is called (the engine calls it once, after the loop).
func (c *coordinator) Stats() core.ExecutorStats {
	c.finish(context.Background())
	return c.stats
}

// finish releases run state on every worker and folds their tallies into
// the coordinator's stats. Failures are absorbed: finish runs after the
// result is already decided, and a worker that died mid-run has no
// tallies left to lose.
func (c *coordinator) finish(ctx context.Context) {
	c.finishOnce.Do(func() {
		resps := make([]FinishResponse, c.spec.Shards)
		parallel.ForEach(c.spec.Shards, c.spec.Shards, func(i int) {
			tr, ref := c.startRPC(ctx, "dist.finish", i)
			req := FinishRequest{RunID: c.spec.RunID, Traceparent: tr.Traceparent(ref.ID())}
			err := c.withRetry(ctx, "finish", i, func(ctx context.Context) error {
				r, err := c.clients[i].Finish(ctx, req)
				if err == nil {
					resps[i] = r
				}
				return err
			})
			if err != nil {
				resps[i] = FinishResponse{}
			}
			// Per-shard cost attribution: one zero-length "part" span per
			// recipe part the shard's cache saw, under this finish span —
			// the dist counterpart of the engine's local part spans, with
			// the shard attr marking where the compute actually ran.
			if tr != nil {
				for _, p := range resps[i].Parts {
					tr.Start(ref.ID(), "part",
						otrace.String("part", p.Part),
						otrace.Int("shard", int64(i)),
						otrace.Int("hits", p.Hits),
						otrace.Int("misses", p.Misses),
						otrace.Dur("ns.cache_lookup", time.Duration(p.LookupNanos)),
						otrace.Dur("ns.extract", time.Duration(p.ComputeNanos)),
					).End()
				}
			}
			ref.End()
		})
		for i, r := range resps {
			c.workers[i].CacheHits = r.CacheHits
			c.workers[i].CacheMisses = r.CacheMisses
			c.workers[i].Parts = r.Parts
			c.stats.CacheHits += r.CacheHits
			c.stats.CacheMisses += r.CacheMisses
			c.stats.CacheLookupNanos += r.CacheLookupNanos
		}
	})
}
