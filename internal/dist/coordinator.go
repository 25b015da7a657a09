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
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
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
// rebuilds independently. Everything else about the run — its fault plan,
// metrics registry and span tracer — is read from the engine's Config, so
// a sharded run executes the same plan as a single-process one.
type Spec struct {
	RunID          string
	Corpus         string
	Task           string
	FeatureVersion int
	Seed           int64
	Shards         int
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
	// Inputs consumed from a flight, demand-fetched, fetched but never consumed.
	ReadAheadHits   int64 `json:"readahead_hits"`
	ReadAheadMisses int64 `json:"readahead_misses"`
	ReadAheadWasted int64 `json:"readahead_wasted"`
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

// CheckMode rejects a mode Run cannot shard: every mode but zombie.
func CheckMode(mode core.Mode) error {
	if mode != core.ModeZombie {
		return fmt.Errorf("dist: sharded execution requires mode %s, got %q", core.ModeZombie, mode)
	}
	return nil
}

// Run executes one distributed run: initialize every worker's shard view,
// then drive eng's unchanged loop with a coordinator executor that routes
// each step to the owning worker. task and groups are the coordinator's
// own (unwrapped) task and index groups — identical to what a
// single-process run would use, which is what makes the curves
// comparable byte-for-byte.
//
// The engine's Config supplies the rest of the plan. Its Faults ship to
// every worker (injection decisions are pure hashes, so workers and
// coordinator agree on them). Its Obs receives coordinator-side metrics
// (dist_rpc_seconds{method}). Its Tracer gets one "dist.<method>" rpc span
// per worker call — parented under the engine's batch/holdout span when
// the call context carries one — propagated as a traceparent on the
// request, with the worker's returned spans stitched underneath, so the
// span tree covers both sides of every RPC.
func Run(ctx context.Context, eng *core.Engine, tr Transport, spec Spec, task *featurepipe.Task, groups *index.Groups) (*Result, error) {
	if err := CheckMode(eng.Config().Mode); err != nil {
		return nil, err
	}
	c, err := newCoordinator(tr, spec, eng.Config(), task, groups)
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
	cfg     core.Config // the engine's: faults, obs and tracer
	clients []Client
	task    *featurepipe.Task
	sm      *ShardMap
	workers []WorkerStats
	calls   []shardCalls // folded into workers at finish

	// Read-ahead state (see readAhead), loop goroutine only: members is
	// core.PoolMembers' order; cursor[a] and front[a] count arm a's members
	// consumed, and fetched or in flight; slots is where each fetched,
	// unconsumed input lands; last[s] is shard s's newest flight.
	assign        []int
	members       [][]int
	cursor, front []int
	slots         map[int]slot
	last          []*flight
	flights       sync.WaitGroup

	// ExecuteBatch's results and per-shard miss positions, reused across calls.
	outs []core.StepOutcome
	errs []error
	miss [][]int

	// rpc holds the per-method latency histograms, keyed by the wire
	// method name withRetry is called with; empty when Obs is nil.
	rpc map[string]*obs.Histogram

	finishOnce sync.Once
	stats      core.ExecutorStats
}

// shardCalls is one shard's withRetry tally — atomic, because a flight and
// a demand call to one shard can overlap — and whether a speculative call
// to it has failed, after which it is only ever asked on demand.
type shardCalls struct {
	retried, failed atomic.Int64
	noAhead         atomic.Bool
}

// flight is one speculative StepBatch call: its goroutine sets resp and
// err, then closes done. A slot is where one fetched-ahead input lands.
type flight struct {
	done chan struct{}
	resp StepBatchResponse
	err  error
}

type slot struct {
	f *flight
	j int
}

func newCoordinator(tr Transport, spec Spec, cfg core.Config, task *featurepipe.Task, groups *index.Groups) (*coordinator, error) {
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
	c := &coordinator{spec: spec, cfg: cfg, clients: clients, task: task, sm: sm, rpc: map[string]*obs.Histogram{},
		calls: make([]shardCalls, spec.Shards), last: make([]*flight, spec.Shards),
		slots: map[int]slot{}, miss: make([][]int, spec.Shards)}
	// Groups the engine will reject get no tables: every batch is demand-fetched.
	if groups != nil && groups.Len() == task.Store.Len() {
		c.assign, c.members = groups.Assign, core.PoolMembers(groups, task.PoolSet())
		c.cursor, c.front = make([]int, groups.K()), make([]int, groups.K())
	}
	if cfg.Obs != nil {
		const name, help = "dist_rpc_seconds", "Coordinator-side worker call latency by method."
		for _, method := range []string{"init", "holdout", "step-batch", "finish"} {
			c.rpc[method] = cfg.Obs.HistogramL(name, help, "method", method, obs.LatencyBuckets)
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
			c.calls[shard].retried.Add(1)
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
	c.calls[shard].failed.Add(1)
	return err
}

// noteRPCError bumps the errored-attempt counter for one (method, worker)
// pair. Series are declared on first error — declaration is idempotent
// and this is far off the hot path — so a clean run exports no error
// series at all.
func (c *coordinator) noteRPCError(method string, shard int) {
	if c.cfg.Obs == nil {
		return
	}
	c.cfg.Obs.CounterL("dist_rpc_errors",
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
func (c *coordinator) startRPC(ctx context.Context, name string, shard int, attrs ...otrace.Attr) (*otrace.Tracer, *otrace.SpanRef) {
	tr, parent := otrace.FromContext(ctx)
	if tr == nil {
		tr = c.cfg.Tracer
	}
	if tr == nil {
		return nil, nil
	}
	return tr, tr.Start(parent, name, append(attrs, otrace.Int("shard", int64(shard)))...)
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
			FaultSpec:      c.cfg.Faults.String(),
			FaultSeed:      c.cfg.Faults.Seed(),
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

// ExecuteBatch serves one arm pull: inputs a flight already fetched (or
// has in the air) are consumed from it, the rest are demand-fetched with
// ONE StepBatch per owning shard, concurrently, and then the arm's window
// is topped up (see readAhead). Errors are formatted here, at consumption,
// with the loop's real step number, so a result cannot depend on which
// path fetched an input. Only a whole demand call is retried, and past the
// budget it errors each of its items; a failure the worker reports for one
// item in-band is final on either path. The engine quarantines either kind
// and charges the arm, so a dead worker degrades like a corrupt shard.
func (c *coordinator) ExecuteBatch(ctx context.Context, firstStep int, idxs []int) ([]core.StepOutcome, []error) {
	n := len(idxs)
	c.outs, c.errs = slices.Grow(c.outs[:0], n)[:n], slices.Grow(c.errs[:0], n)[:n]
	clear(c.outs)
	clear(c.errs)
	misses := 0
	for p, idx := range idxs {
		owner := c.sm.Owner(idx)
		sl, ahead := c.slots[idx]
		if ahead {
			delete(c.slots, idx)
			<-sl.f.done // a cancel fails the flight's call, so this never outwaits ctx
		}
		switch {
		case owner < 0:
			c.errs[p] = fmt.Errorf("dist: step %d: input %d outside the shard map", firstStep+p, idx)
		case ahead && sl.f.err == nil:
			c.workers[owner].ReadAheadHits++
			c.deliver(p, owner, firstStep+p, idx, &sl.f.resp.Items[sl.j], nil)
		default:
			// Not fetched ahead, or by a flight that failed and is forgotten.
			c.workers[owner].ReadAheadMisses++
			c.miss[owner] = append(c.miss[owner], p)
			misses++
		}
	}
	if misses > 0 {
		parallel.ForEach(len(c.miss), len(c.miss), func(owner int) { c.demand(ctx, owner, firstStep, idxs) })
	}
	c.readAhead(ctx, idxs)
	return c.outs, c.errs
}

// demand fetches the batch positions in miss[owner] with one call.
func (c *coordinator) demand(ctx context.Context, owner, firstStep int, idxs []int) {
	ps := c.miss[owner]
	if len(ps) == 0 {
		return
	}
	c.miss[owner] = ps[:0]
	req := StepBatchRequest{RunID: c.spec.RunID}
	for _, p := range ps {
		req.Steps, req.Idxs = append(req.Steps, firstStep+p), append(req.Idxs, idxs[p])
	}
	tr, ref := c.startRPC(ctx, "dist.step_batch", owner)
	req.Traceparent = tr.Traceparent(ref.ID())
	resp, err := c.stepBatch(ctx, owner, req)
	tr.Import(resp.Spans, ref.ID(), ref.ID())
	ref.End()
	for j, p := range ps {
		c.deliver(p, owner, firstStep+p, idxs[p], &resp.Items[j], err)
	}
}

// stepBatch is one StepBatch call under the retry rule; it returns one
// item per input — blank beside an error, which a short response also is.
func (c *coordinator) stepBatch(ctx context.Context, shard int, req StepBatchRequest) (StepBatchResponse, error) {
	var resp StepBatchResponse
	err := c.withRetry(ctx, "step-batch", shard, func(ctx context.Context) (err error) {
		resp, err = c.clients[shard].StepBatch(ctx, req)
		return err
	})
	if err == nil && len(resp.Items) != len(req.Idxs) {
		err = fmt.Errorf("dist: worker %d returned %d outcomes for %d batched steps", shard, len(resp.Items), len(req.Idxs))
	}
	if err != nil {
		resp.Items = make([]StepBatchItem, len(req.Idxs))
	}
	return resp, err
}

// deliver records at batch position p what shard owner made of input idx:
// its call's error, the item's in-band error, or the outcome.
func (c *coordinator) deliver(p, owner, step, idx int, it *StepBatchItem, err error) {
	if err == nil && it.Err != "" {
		err = errors.New(it.Err)
	}
	if err != nil {
		c.errs[p] = fmt.Errorf("dist: worker %d failed step %d (input %d): %v", owner, step, idx, err)
		return
	}
	c.workers[owner].Steps++
	c.outs[p] = core.StepOutcome{
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

// maxWindow caps an arm's read-ahead window: 128 inputs a call at two
// shards, by which a round trip is amortized away.
const maxWindow = 256

var errNoAhead = errors.New("dist: shard stopped reading ahead")

// readAhead tops up the window of the arm that handed out idxs (DESIGN
// §12): an arm hands its members out in fixed order and an outcome is a
// pure function of the input, so fetching the next ones early cannot
// change them. The window is min(maxWindow, members the arm has consumed),
// refilled once less than half of it is ahead, so inputs fetched but never
// consumed cannot outnumber the consumed. A refill is one asynchronous
// StepBatch per owning shard, skipping a shard whose flight has failed.
func (c *coordinator) readAhead(ctx context.Context, idxs []int) {
	if len(idxs) == 0 || idxs[0] < 0 || idxs[0] >= len(c.assign) {
		return
	}
	a := c.assign[idxs[0]]
	ms, cur := c.members[a], c.cursor[a]+len(idxs)
	if cur > len(ms) || ms[c.cursor[a]] != idxs[0] {
		return // not the arm's next members: nothing to predict from
	}
	c.cursor[a] = cur
	window, front := min(maxWindow, cur), max(c.front[a], cur)
	if 2*(front-cur) >= window {
		return
	}
	c.front[a] = min(len(ms), cur+window)
	want := make([][]int, c.spec.Shards)
	for _, idx := range ms[front:c.front[a]] {
		if s := c.sm.Owner(idx); s >= 0 && !c.calls[s].noAhead.Load() {
			want[s] = append(want[s], idx)
		}
	}
	for s, idxs := range want {
		if len(idxs) > 0 {
			c.launch(ctx, s, idxs)
		}
	}
}

// launch starts one flight. A shard's flights run one behind the other —
// its worker would serialize them anyway — so a dead shard costs one
// speculative call, not one per arm. The span opens here, under the issuing
// batch: the goroutine must not read ctx's span cursor, which the loop moves.
func (c *coordinator) launch(ctx context.Context, shard int, idxs []int) {
	f, prev := &flight{done: make(chan struct{})}, c.last[shard]
	c.last[shard] = f
	for j, idx := range idxs {
		c.slots[idx] = slot{f, j}
	}
	tr, ref := c.startRPC(ctx, "dist.step_batch", shard, otrace.String("readahead", "true"))
	req := StepBatchRequest{RunID: c.spec.RunID, Idxs: idxs, Traceparent: tr.Traceparent(ref.ID())}
	c.flights.Add(1)
	go func() {
		defer c.flights.Done()
		defer close(f.done)
		defer ref.End()
		if prev != nil {
			<-prev.done
		}
		if c.calls[shard].noAhead.Load() {
			f.err = errNoAhead
			return
		}
		f.resp, f.err = c.stepBatch(ctx, shard, req)
		tr.Import(f.resp.Spans, ref.ID(), ref.ID())
		c.calls[shard].noAhead.Store(f.err != nil) // never back to false: no flight follows a failed one
	}()
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
		c.flights.Wait() // no call may reach a run its worker has released
		for idx, sl := range c.slots {
			if sl.f.err == nil {
				c.workers[c.sm.Owner(idx)].ReadAheadWasted++
			}
		}
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
		var ahead [3]int64
		for i, r := range resps {
			w := &c.workers[i]
			w.RetriedCalls, w.FailedCalls = c.calls[i].retried.Load(), c.calls[i].failed.Load()
			w.CacheHits, w.CacheMisses, w.Parts = r.CacheHits, r.CacheMisses, r.Parts
			ahead[0] += w.ReadAheadHits
			ahead[1] += w.ReadAheadMisses
			ahead[2] += w.ReadAheadWasted
			c.stats.CacheHits += r.CacheHits
			c.stats.CacheMisses += r.CacheMisses
			c.stats.CacheLookupNanos += r.CacheLookupNanos
		}
		if c.cfg.Obs != nil {
			for i, outcome := range []string{"hit", "miss", "wasted"} {
				c.cfg.Obs.CounterL("dist_readahead_inputs",
					"Pool inputs consumed from a speculative call, demand-fetched, or fetched ahead and never consumed.",
					obs.Label{Key: "outcome", Value: outcome}).Add(ahead[i])
			}
		}
	})
}
