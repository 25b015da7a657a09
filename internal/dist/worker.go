package dist

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/parallel"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// Worker owns corpus shards and executes bandit steps for them. One
// Worker serves any number of concurrent runs (keyed by run ID); each
// run's state is the worker's view of that run's shard: the rebuilt task,
// the shard map, and a core.LocalExecutor threading the worker's own
// featcache and the run's fault injector — identical wrapping, in
// identical order, to the single-process engine, which is half of the
// byte-identity contract (the other half is the coordinator driving the
// unchanged engine loop).
//
// Workers are intentionally dumb: they never see the policy, the learner,
// or the curve. Everything a worker computes is a pure function of
// (corpus, task name, feature version, seed, input index), so any two
// workers given the same spec are interchangeable, and a step may be
// retried on the same worker without state drift.
type Worker struct {
	resolve func(name string) (corpus.Store, error)
	cache   *featcache.Cache
	reg     *obs.Registry

	mu   sync.Mutex
	runs map[string]*workerRun

	steps   *obs.Counter
	read    *obs.Histogram
	extract *obs.Histogram
}

type workerRun struct {
	shard  int
	label  string // "w<shard>", the dist.step fault key
	sm     *ShardMap
	exec   *core.LocalExecutor
	faults *fault.Injector
	steps  atomic.Int64
	// batch admits one StepBatch per run at a time: a speculative and a
	// demand call may overlap, and exec attributes cache hits by counter
	// deltas only a single stepping goroutine keeps exact.
	batch sync.Mutex
}

// NewWorker returns a worker resolving corpus names through resolve
// (the server passes its corpus registry; the local transport a closure
// over one store). cache is the worker's own extraction-cache view (nil
// for none); reg receives the worker's metrics (nil for none).
func NewWorker(resolve func(name string) (corpus.Store, error), cache *featcache.Cache, reg *obs.Registry) *Worker {
	w := &Worker{resolve: resolve, cache: cache, runs: map[string]*workerRun{}}
	if reg != nil {
		w.reg = reg
		w.steps = reg.Counter("dist_worker_steps", "Bandit steps executed by this worker.")
		const name, help = "dist_worker_phase_seconds", "Worker-side step time by phase."
		w.read = reg.HistogramL(name, help, "phase", "read", obs.LatencyBuckets)
		w.extract = reg.HistogramL(name, help, "phase", "extract", obs.LatencyBuckets)
	}
	return w
}

// Init sets up (or replaces — Init is idempotent, so a retried call is
// harmless) one run's shard view.
func (w *Worker) Init(req InitRequest) (InitResponse, error) {
	if req.RunID == "" {
		return InitResponse{}, fmt.Errorf("dist: init: empty run ID")
	}
	if req.Shard < 0 || req.Shard >= req.Shards {
		return InitResponse{}, fmt.Errorf("dist: init: shard %d out of range for %d shards", req.Shard, req.Shards)
	}
	store, err := w.resolve(req.Corpus)
	if err != nil {
		return InitResponse{}, fmt.Errorf("dist: init: corpus %q: %w", req.Corpus, err)
	}
	// The task rebuild uses the exact (name, store, version, seed-split)
	// recipe every front end uses, so this worker's pool/holdout split and
	// feature code are byte-identical to the coordinator's.
	task, _, err := workload.Build(req.Task, store, req.FeatureVersion, rng.New(req.Seed).Split("task"))
	if err != nil {
		return InitResponse{}, fmt.Errorf("dist: init: %w", err)
	}
	faults, err := fault.Parse(req.FaultSpec, req.FaultSeed)
	if err != nil {
		return InitResponse{}, fmt.Errorf("dist: init: %w", err)
	}
	sm, err := NewShardMap(store.Len(), req.Shards, req.Seed)
	if err != nil {
		return InitResponse{}, fmt.Errorf("dist: init: %w", err)
	}
	run := &workerRun{
		shard:  req.Shard,
		label:  "w" + strconv.Itoa(req.Shard),
		sm:     sm,
		exec:   core.NewLocalExecutor(task, w.cache, faults),
		faults: faults,
	}
	owned, ownedHoldout := sm.Sizes()[req.Shard], 0
	for _, idx := range task.HoldoutIdx {
		if sm.Owner(idx) == req.Shard {
			ownedHoldout++
		}
	}
	if w.reg != nil {
		w.reg.GaugeL("dist_shard_inputs", "Store indices owned by the shard.",
			"shard", strconv.Itoa(req.Shard)).Set(int64(owned))
	}
	w.mu.Lock()
	w.runs[req.RunID] = run
	w.mu.Unlock()
	return InitResponse{StoreLen: store.Len(), OwnedInputs: owned, OwnedHoldout: ownedHoldout}, nil
}

// requestSpanCap bounds a request-scoped tracer: work RPCs emit one span
// per request, so anything above a handful is headroom.
const requestSpanCap = 16

// startRequestSpan opens a request-scoped tracer when the request carried
// a parseable traceparent, with one span named name parented at the
// propagated span ID. A missing or malformed traceparent returns nils —
// the request runs untraced, never failed over telemetry. The caller ends
// the span and ships tr.Snapshot() in the response; the coordinator's
// Import remaps the worker-local IDs into its own buffer.
func startRequestSpan(traceparent, name string, attrs ...otrace.Attr) (*otrace.Tracer, *otrace.SpanRef) {
	if traceparent == "" {
		return nil, nil
	}
	_, parent, ok := otrace.ParseTraceparent(traceparent)
	if !ok {
		return nil, nil
	}
	tr := otrace.New(traceparent, requestSpanCap)
	return tr, tr.Start(parent, name, attrs...)
}

func (w *Worker) run(id string) (*workerRun, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	run, ok := w.runs[id]
	if !ok {
		return nil, fmt.Errorf("dist: unknown run %q on this worker (init first)", id)
	}
	return run, nil
}

// Holdout extracts the holdout inputs the run's shard owns, in ascending
// global index order, through the run's wrapped task — cache and fault
// behavior identical to a single-process holdout build over the same
// inputs, and the same loop (featurepipe's ExtractHoldout) under a held
// budget slot, so it borrows only cores no run on this process is using.
func (w *Worker) Holdout(req HoldoutRequest) (HoldoutResponse, error) {
	run, err := w.run(req.RunID)
	if err != nil {
		return HoldoutResponse{}, err
	}
	tr, ref := startRequestSpan(req.Traceparent, "worker.holdout",
		otrace.Int("shard", int64(run.shard)))
	t0 := time.Now()
	task := run.exec.Task()
	// HoldoutIdx is iterated sorted by global index (Owned order), not in
	// the task's shuffled holdout order: the canonical order lets the
	// coordinator verify merge alignment without trusting worker iteration.
	var owned []int
	for _, idx := range task.HoldoutIdx {
		if run.sm.Owner(idx) == run.shard {
			owned = append(owned, idx)
		}
	}
	sort.Ints(owned)
	release := parallel.Hold()
	results, outcomes := task.ExtractHoldout(owned)
	release()
	resp := HoldoutResponse{Items: make([]HoldoutItem, len(owned))}
	for i, idx := range owned {
		resp.Items[i] = HoldoutItem{Idx: idx, InputID: outcomes[i].InputID, Skip: outcomes[i].Reason, Result: results[i]}
	}
	if tr != nil {
		ref.End(otrace.Int("items", int64(len(resp.Items))),
			otrace.Dur("ns.holdout", time.Since(t0)))
		resp.Spans, _ = tr.Snapshot()
	}
	return resp, nil
}

// stepOne executes one step of a batch: fire the worker's dist.step fault
// gate (a dead worker errors every step; a slow one sleeps), check
// ownership, then read + extract through the shared local executor. A
// panic anywhere in the step (an injected panic rule at dist.step, most
// likely) is recovered into an error so both transports surface it as a
// failed step with the same message, rather than http tearing down the
// connection while local crashes the process.
func (w *Worker) stepOne(run *workerRun, idx int) (resp StepResponse, err error) {
	defer func() {
		if p := recover(); p != nil {
			resp, err = StepResponse{}, fmt.Errorf("dist: worker step panic: %v", p)
		}
	}()
	if ferr := run.faults.Fire(fault.SiteDistStep, run.label); ferr != nil {
		return StepResponse{}, ferr
	}
	if owner := run.sm.Owner(idx); owner != run.shard {
		return StepResponse{}, fmt.Errorf("dist: input %d belongs to shard %d, not %d (misrouted step)", idx, owner, run.shard)
	}
	out, err := run.exec.ExecuteStep(context.Background(), 0, idx) // no outcome depends on the step number
	if err != nil {
		return StepResponse{}, err
	}
	run.steps.Add(1)
	if w.steps != nil {
		w.steps.Inc()
		w.read.Observe(float64(out.ReadNanos) / 1e9)
		w.extract.Observe(float64(out.ExtractNanos) / 1e9)
	}
	return StepResponse{
		InputID:      out.InputID,
		ReadErr:      out.ReadErr,
		CostNanos:    int64(out.Cost),
		ExtractErr:   out.ExtractErr,
		Panicked:     out.Panicked,
		CacheHit:     out.CacheHit,
		ReadNanos:    out.ReadNanos,
		ExtractNanos: out.ExtractNanos,
		Result:       out.Res,
	}, nil
}

// StepBatch executes a batch of steps in one call — a batch of one for a
// K=1 run. The run lookup and request validation fail the whole call
// (there is nothing per-item about them); everything after runs per item
// through stepOne, with each item's failure captured in its
// StepBatchItem.Err so the rest of the batch proceeds. Calls on one run
// execute one at a time (workerRun.batch).
func (w *Worker) StepBatch(req StepBatchRequest) (StepBatchResponse, error) {
	if len(req.Steps) != 0 && len(req.Steps) != len(req.Idxs) {
		return StepBatchResponse{}, fmt.Errorf("dist: step batch has %d steps for %d inputs", len(req.Steps), len(req.Idxs))
	}
	run, err := w.run(req.RunID)
	if err != nil {
		return StepBatchResponse{}, err
	}
	tr, ref := startRequestSpan(req.Traceparent, "worker.step_batch",
		otrace.Int("shard", int64(run.shard)))
	var readNs, extractNs int64
	resp := StepBatchResponse{Items: make([]StepBatchItem, len(req.Idxs))}
	run.batch.Lock()
	for j, idx := range req.Idxs {
		sr, err := w.stepOne(run, idx)
		if err != nil {
			resp.Items[j].Err = err.Error()
			continue
		}
		readNs += sr.ReadNanos
		extractNs += sr.ExtractNanos
		resp.Items[j].StepResponse = sr
	}
	run.batch.Unlock()
	if tr != nil {
		ref.End(otrace.Int("steps", int64(len(req.Idxs))),
			otrace.Dur("ns.read", time.Duration(readNs)),
			otrace.Dur("ns.extract", time.Duration(extractNs)))
		resp.Spans, _ = tr.Snapshot()
	}
	return resp, nil
}

// Finish releases the run's state and reports its tallies. Finishing an
// unknown run is not an error (the coordinator may retry a finish whose
// first response was lost).
func (w *Worker) Finish(req FinishRequest) (FinishResponse, error) {
	w.mu.Lock()
	run, ok := w.runs[req.RunID]
	delete(w.runs, req.RunID)
	w.mu.Unlock()
	if !ok {
		return FinishResponse{}, nil
	}
	// A batch whose caller gave up may still be stepping; its tallies count.
	run.batch.Lock()
	defer run.batch.Unlock()
	st := run.exec.Stats()
	return FinishResponse{
		Steps:            int(run.steps.Load()),
		CacheHits:        st.CacheHits,
		CacheMisses:      st.CacheMisses,
		CacheLookupNanos: st.CacheLookupNanos,
		Parts:            st.Parts,
	}, nil
}
