package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/dist"
	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/parallel"
	"zombie/internal/recipe"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// Submission overload/lifecycle errors, distinguished so the HTTP layer
// can map them to 503 instead of 400.
var (
	ErrQueueFull    = errors.New("server: run queue full")
	ErrShuttingDown = errors.New("server: shutting down, not accepting runs")
)

// Manager executes runs and session versions asynchronously on one
// parallel.Pool — the same bounded worker pool the experiment harness uses
// for fork-join work — so Config.Workers bounds everything the server
// executes at once. Submit validates and enqueues; the pool's workers
// drain the queue; Cancel stops a queued or running run; Shutdown drains
// in-flight work, versions included. Runs are kept forever (the manager is
// the system of record for run history); a production deployment would
// add retention, which is deliberately out of scope here.
type Manager struct {
	registry  *Registry
	cache     *IndexCache
	featCache *featcache.Cache
	metrics   *Metrics
	store     *DurableStore // nil without a state directory
	defaults  RunDefaults
	log       *slog.Logger

	pool    *parallel.Pool
	running atomic.Int64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu     sync.Mutex
	runs   map[string]*Run
	order  []string // submission order, for List
	nextID int
	closed bool
	// pending holds restored interrupted runs awaiting recoverPending —
	// re-queueing is deferred until the embedder has registered the
	// corpora the runs reference.
	pending []*Run
}

// RunDefaults are the server-wide robustness settings a RunSpec inherits
// when it does not set its own. Zero values mean: no deadline, no fault
// injection, the engine's default failure budget.
type RunDefaults struct {
	// Timeout is the per-run wall-clock deadline (0 = none). A run over it
	// ends as cancelled-with-partials, marked timed_out.
	Timeout time.Duration
	// Faults injects deterministic failures into every run that does not
	// carry its own spec (chaos deployments only; normally nil).
	Faults *fault.Injector
	// MaxFailureFrac is the default failure budget (0 = core's default).
	MaxFailureFrac float64
	// DistWorkers lists worker base URLs sharded runs execute over when
	// their spec names none of its own (see Config.DistWorkers).
	DistWorkers []string
}

// NewManager starts a pool of workers goroutines over a queue of queueCap
// pending runs and session versions (both floored at 1) and returns the
// manager. store receives every lifecycle record; nil means state dies
// with the process. A nil metrics gets a private registry.
func NewManager(registry *Registry, cache *IndexCache, featCache *featcache.Cache, metrics *Metrics, store *DurableStore, workers, queueCap int, defaults RunDefaults) *Manager {
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		registry:   registry,
		cache:      cache,
		featCache:  featCache,
		metrics:    metrics,
		store:      store,
		defaults:   defaults,
		log:        obs.NopLogger(),
		pool:       parallel.NewPool(workers, queueCap),
		baseCtx:    ctx,
		baseCancel: cancel,
		runs:       map[string]*Run{},
	}
}

// transition applies rec to the run and, when the run's reducer accepted
// it, hands the same record to the store — every live run transition
// after submit goes through here (or through Cancel, which must decide
// under the run's lock).
func (m *Manager) transition(run *Run, rec *walRecord) bool {
	ok := run.transition(rec)
	if ok {
		m.store.record(rec)
	}
	return ok
}

// normalize fills spec defaults in place.
func (spec *RunSpec) normalize() {
	if spec.Mode == "" {
		spec.Mode = "zombie"
	}
	if spec.Policy == "" {
		spec.Policy = "eps-greedy:0.1"
	}
	if spec.K == 0 {
		spec.K = 32
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
}

// engineConfig translates a normalized spec into a core.Config (without
// the Progress hook, which is attached per run at execution time),
// filling robustness settings the spec leaves unset from the manager's
// defaults. The fault spec is parsed here, so Submit's eager validation
// rejects a malformed one as a 400.
func (m *Manager) engineConfig(spec RunSpec) (core.Config, error) {
	cfg := core.Config{
		Mode:           core.Mode(spec.Mode),
		Policy:         bandit.Spec(spec.Policy),
		Seed:           spec.Seed,
		MaxInputs:      spec.MaxInputs,
		EvalEvery:      spec.EvalEvery,
		MaxFailureFrac: spec.MaxFailures,
		BatchSize:      spec.Batch,
	}
	if spec.EarlyStop {
		cfg.EarlyStop = core.EarlyStopConfig{Enabled: true}
	}
	if cfg.MaxFailureFrac == 0 {
		cfg.MaxFailureFrac = m.defaults.MaxFailureFrac
	}
	if spec.Faults != "" {
		inj, err := fault.Parse(spec.Faults, spec.FaultSeed)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Faults = inj
	} else {
		cfg.Faults = m.defaults.Faults
	}
	return cfg, nil
}

// runContext is an execution's context: a child of the base context that
// Shutdown cancels once its drain budget is spent, carrying the spec's
// deadline — or the server default — when there is one.
func (m *Manager) runContext(spec RunSpec) (context.Context, context.CancelFunc) {
	timeout := m.defaults.Timeout
	if spec.TimeoutMillis > 0 {
		timeout = time.Duration(spec.TimeoutMillis) * time.Millisecond
	}
	if timeout > 0 {
		return context.WithTimeout(m.baseCtx, timeout)
	}
	return context.WithCancel(m.baseCtx)
}

// validate rejects a normalized spec the engine could not run: an unknown
// corpus or task, an out-of-range knob, an engine configuration (mode,
// policy and fault specs included) core.New refuses, or a sharded mode
// dist.CheckMode refuses — eagerly, so submission errors surface as 400s,
// not failed runs. Session specs
// validate here too, as the run their versions execute (runSpec).
func (m *Manager) validate(spec RunSpec) error {
	if _, err := m.registry.Get(spec.Corpus); err != nil {
		return err
	}
	if !slices.Contains(workload.Names(), spec.Task) {
		return fmt.Errorf("server: unknown task %q (want one of %v)", spec.Task, workload.Names())
	}
	if spec.K < 1 {
		return fmt.Errorf("server: k must be >= 1, got %d", spec.K)
	}
	for _, knob := range []struct {
		name  string
		value int64
	}{{"timeout_ms", spec.TimeoutMillis}, {"shards", int64(spec.Shards)}, {"batch", int64(spec.Batch)}, {"eval_every", int64(spec.EvalEvery)}} {
		if knob.value < 0 {
			return fmt.Errorf("server: %s must be >= 0, got %d", knob.name, knob.value)
		}
	}
	if spec.Shards > 0 && len(spec.DistWorkers) > 0 && spec.Shards != len(spec.DistWorkers) {
		return fmt.Errorf("server: shards=%d does not match %d dist_workers", spec.Shards, len(spec.DistWorkers))
	}
	cfg, err := m.engineConfig(spec)
	if err != nil {
		return err
	}
	if _, err := core.New(cfg); err != nil || !spec.distributed() {
		return err
	}
	return dist.CheckMode(cfg.Mode) // normalize left no empty mode
}

// admit runs enqueue — which journals a submission and hands its task to
// the pool — under the manager's lock, so a submission racing Shutdown is
// either refused whole (nothing appended, nothing journaled) or enqueued
// before the pool closes. Runs, sessions and versions all enter here.
func (m *Manager) admit(enqueue func() error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrShuttingDown
	}
	return enqueue()
}

// Submit validates the spec, assigns an ID, and enqueues the run. It
// returns an error for unknown corpora/tasks/modes, invalid engine
// configuration, a full queue, or a shutting-down manager.
func (m *Manager) Submit(spec RunSpec) (*Run, error) {
	spec.normalize()
	if err := m.validate(spec); err != nil {
		return nil, err
	}
	var run *Run
	err := m.admit(func() error {
		m.nextID++
		submit := &walRecord{Type: recRunSubmit, ID: "r" + strconv.Itoa(m.nextID), Num: m.nextID, Spec: &spec, At: time.Now().UnixNano()}
		run = newRun(newRunRecord(submit))
		run.task = func() { m.execute(run) }
		if err := m.enqueue(submit, run); err != nil {
			m.nextID-- // ID was never exposed
			return err
		}
		m.order = append(m.order, run.ID)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return run, nil
}

// enqueue, called under admit, journals a run's or version's submission
// and hands its task to the pool — journal first, as a worker may start
// the run the instant TrySubmit returns. A full queue is compensated with
// a discard record: the run never existed.
func (m *Manager) enqueue(submit *walRecord, run *Run) error {
	m.store.record(submit)
	if !m.pool.TrySubmit(run.task) {
		m.store.record(&walRecord{Type: recRunDiscard, ID: run.ID})
		return fmt.Errorf("%w (%d pending)", ErrQueueFull, m.pool.Cap())
	}
	m.runs[run.ID] = run
	m.metrics.RunsStarted.Add(1)
	return nil
}

// Get returns the run by ID.
func (m *Manager) Get(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// List returns snapshots of all runs in submission order.
func (m *Manager) List() []RunInfo {
	m.mu.Lock()
	ids := make([]string, len(m.order))
	copy(ids, m.order)
	runs := make([]*Run, 0, len(ids))
	for _, id := range ids {
		runs = append(runs, m.runs[id])
	}
	m.mu.Unlock()
	out := make([]RunInfo, 0, len(runs))
	for _, r := range runs {
		out = append(out, r.Info())
	}
	return out
}

// Cancel requests cancellation of the run. The returned info reflects the
// state after the request: cancelled for a queued run, still running for a
// run that has yet to observe its context, terminal states unchanged.
func (m *Manager) Cancel(id string) (RunInfo, error) {
	run, ok := m.Get(id)
	if !ok {
		return RunInfo{}, fmt.Errorf("server: unknown run %q", id)
	}
	finish := &walRecord{Type: recRunFinish, ID: run.ID, At: time.Now().UnixNano(), State: StateCancelled}
	if run.requestCancel(finish) {
		// The cancel itself finished a queued run; no worker will ever own
		// it, so the terminal record is journaled here.
		m.metrics.RunsCancelled.Add(1)
		m.store.record(finish)
	}
	return run.Info(), nil
}

// QueueDepth returns the number of runs and session versions waiting for
// a worker.
func (m *Manager) QueueDepth() int { return m.pool.QueueDepth() }

// Running returns the number of runs currently executing.
func (m *Manager) Running() int { return int(m.running.Load()) }

// execute runs one queued run or session version to a terminal state:
// start, engine call, outcome, counters, finish and logs.
func (m *Manager) execute(run *Run) {
	spec := run.rec.Spec
	ctx, cancel := m.runContext(spec)
	defer cancel()
	started := time.Now().UnixNano()
	// The start record carries the cancel hook a later DELETE will invoke.
	if !m.transition(run, &walRecord{Type: recRunStart, ID: run.ID, At: started, cancel: cancel}) {
		return // cancelled while queued
	}
	m.running.Add(1)
	defer m.running.Add(-1)
	m.log.Info("run started", "run", run.ID, "corpus", spec.Corpus,
		"task", spec.Task, "mode", spec.Mode)

	// Exactly one of res and err is set.
	var res *core.RunResult
	var ver *recipe.Version
	var err error
	if run.session != nil {
		if ver, err = m.runVersion(ctx, run); err == nil {
			res = ver.Run
		}
	} else {
		res, err = m.runEngine(ctx, run)
	}
	finished := time.Now().UnixNano()
	// Counters move before the finish transition closes Done, so whoever
	// waits on the run reads them settled.
	wall := wallMillis(started, finished)
	m.metrics.RunWallMillis.Add(wall)
	if res != nil {
		m.metrics.InputsQuarantined.Add(int64(len(res.Quarantined)))
		m.metrics.InputsProcessed.Add(int64(res.InputsProcessed))
	}
	state, errMsg, timedOut := StateDone, "", false
	switch {
	case err != nil:
		m.metrics.RunsFailed.Add(1)
		state, errMsg = StateFailed, err.Error()
	case res.Stop == core.StopFailed:
		// The failure budget tripped: terminal failed, but with the partial
		// result attached — the curve so far and the quarantine list are the
		// evidence the client needs. The message counts loop quarantines
		// only (Step >= 1): holdout-build entries are outside the budget.
		loopQuarantined := 0
		for _, q := range res.Quarantined {
			if q.Step >= 1 {
				loopQuarantined++
			}
		}
		m.metrics.RunsFailed.Add(1)
		state, errMsg = StateFailed, fmt.Sprintf("failure budget exceeded: %d of %d processed inputs quarantined",
			loopQuarantined, res.InputsProcessed)
	case res.Stop == core.StopCancelled:
		// Distinguish a deadline expiry from a client cancel: both surface
		// as a cancelled loop, but only the former carries DeadlineExceeded.
		if timedOut = errors.Is(ctx.Err(), context.DeadlineExceeded); timedOut {
			m.metrics.RunsTimedOut.Add(1)
		}
		m.metrics.RunsCancelled.Add(1)
		state = StateCancelled
	default:
		m.metrics.RunsCompleted.Add(1)
	}
	// The digest is taken here, once, from the engine result; everything
	// that reports on the run afterwards reads the record.
	m.transition(run, &walRecord{Type: recRunFinish, ID: run.ID, At: finished, State: state, Err: errMsg,
		Summary: runDigest(res, ver), TimedOut: timedOut, result: res})
	if errMsg != "" {
		m.log.Error("run finished", "run", run.ID, "state", state,
			"wall_ms", wall, "error", errMsg)
	} else {
		m.log.Info("run finished", "run", run.ID, "state", state,
			"wall_ms", wall, "inputs", res.InputsProcessed,
			"quality", res.FinalQuality, "quarantined", len(res.Quarantined))
	}
}

// prepare assembles what any execution — a run or a session's workspace —
// needs: the corpus, the task and its index grouper, and the engine
// config over the shared extraction cache (results are byte-identical
// either way, see core.Config.Cache, so it is purely a wall-clock win
// across repeated runs), the telemetry registry, the span tracer (nil
// unless asked for; distributed runs thread it through the coordinator so
// worker-side spans stitch into one tree) and the live-curve bridge.
func (m *Manager) prepare(spec RunSpec, tracer *otrace.Tracer, progress func(core.CurvePoint)) (corpus.Store, *featurepipe.Task, index.Grouper, core.Config, error) {
	store, err := m.registry.Get(spec.Corpus)
	if err != nil {
		return nil, nil, nil, core.Config{}, err
	}
	task, grouper, err := workload.Build(spec.Task, store, spec.FeatureVersion, rng.New(spec.Seed).Split("task"))
	if err != nil {
		return nil, nil, nil, core.Config{}, err
	}
	cfg, err := m.engineConfig(spec)
	cfg.Cache, cfg.Obs, cfg.Tracer, cfg.Progress = m.featCache, m.metrics.Registry(), tracer, progress
	return store, task, grouper, cfg, err
}

// runEngine resolves the run's index through the shared cache when its
// mode needs one and executes the engine loop.
func (m *Manager) runEngine(ctx context.Context, run *Run) (*core.RunResult, error) {
	spec := run.rec.Spec // immutable after Submit
	store, task, grouper, cfg, err := m.prepare(spec, run.tracer, func(p core.CurvePoint) {
		m.transition(run, &walRecord{Type: recRunPoint, ID: run.ID, Point: &p})
	})
	if err != nil {
		return nil, err
	}
	if spec.Trace {
		// Bridge step events into the trace ring and the SSE stream.
		// Config.Event is observational by contract: no run output changes.
		cfg.Event = run.appendEvent
	}
	m.metrics.ObserveTracer(run.tracer)
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}

	if cfg.Mode != core.ModeZombie {
		return eng.RunContext(ctx, task, nil)
	}
	groups, err := m.indexGroups(ctx, spec, store, grouper, cfg.Faults)
	if err != nil {
		return nil, err
	}
	if spec.distributed() {
		return m.runDist(ctx, run, eng, store, task, groups)
	}
	return eng.RunContext(ctx, task, groups)
}

// runDist executes a sharded zombie run through internal/dist. The index
// was already resolved coordinator-side (through the shared index cache,
// exactly like a single-process run); only the per-input read + extract
// work fans out. Worker addresses resolve spec-first, then the server's
// -dist-workers default, then in-process local workers sharing the
// server's extraction cache and telemetry registry.
func (m *Manager) runDist(ctx context.Context, run *Run, eng *core.Engine, store corpus.Store, task *featurepipe.Task, groups *index.Groups) (*core.RunResult, error) {
	spec := run.rec.Spec
	addrs := spec.DistWorkers
	shards := spec.Shards
	if len(addrs) == 0 && shards > 0 && shards <= len(m.defaults.DistWorkers) {
		addrs = m.defaults.DistWorkers[:shards]
	}
	var tr dist.Transport
	if len(addrs) > 0 {
		shards = len(addrs)
		tr = dist.NewHTTPTransport(addrs)
	} else {
		tr = dist.NewLocalTransport(store, shards, m.featCache, m.metrics.Registry())
	}
	defer tr.Close()
	res, err := dist.Run(ctx, eng, tr, dist.Spec{
		RunID:          run.ID,
		Corpus:         spec.Corpus,
		Task:           spec.Task,
		FeatureVersion: spec.FeatureVersion,
		Seed:           spec.Seed,
		Shards:         shards,
	}, task, groups)
	if err != nil {
		return nil, err
	}
	run.setDist(res.Transport, res.Workers)
	m.log.Info("distributed run merged", "run", run.ID,
		"transport", res.Transport, "shards", shards)
	return res.RunResult, nil
}

// Index builds are retried because they are the one run phase with a
// plausible transient failure mode in production (IO against a streamed
// corpus); three attempts with doubling backoff rides out a blip without
// meaningfully delaying the genuinely-broken case.
const (
	indexBuildAttempts = 3
	indexBuildBackoff  = 50 * time.Millisecond
)

// indexGroups resolves a zombie-mode execution's index — runs and session
// workspaces alike — through the shared singleflight cache. A miss builds
// it with panic isolation and up to indexBuildAttempts attempts, backing
// off between them. An injector covering fault.SiteIndexBuild fails
// attempts deterministically, keyed "corpus/strategy#attempt", which is
// how chaos tests exercise this path.
func (m *Manager) indexGroups(ctx context.Context, spec RunSpec, store corpus.Store, grouper index.Grouper, inj *fault.Injector) (*index.Groups, error) {
	key := IndexKey{Corpus: spec.Corpus, Strategy: grouper.Name(), K: spec.K, Seed: spec.Seed}
	build := func() (*index.Groups, error) {
		return grouper.Group(store, spec.K, rng.New(spec.Seed).Split("index"))
	}
	return m.cache.Get(ctx, key, func() (*index.Groups, error) {
		var lastErr error
		for attempt := 0; attempt < indexBuildAttempts; attempt++ {
			if attempt > 0 {
				m.metrics.IndexBuildRetries.Add(1)
				select {
				case <-time.After(indexBuildBackoff << (attempt - 1)):
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			groups, err := buildIndexAttempt(key, attempt, inj, build)
			if err == nil {
				return groups, nil
			}
			lastErr = err
		}
		return nil, fmt.Errorf("server: index build for %s/%s failed after %d attempts: %w",
			key.Corpus, key.Strategy, indexBuildAttempts, lastErr)
	})
}

// buildIndexAttempt is one build attempt with panics flattened to errors
// so a grouper losing control on odd data is retryable like any failure.
func buildIndexAttempt(key IndexKey, attempt int, inj *fault.Injector, build func() (*index.Groups, error)) (groups *index.Groups, err error) {
	defer func() {
		if p := recover(); p != nil {
			groups, err = nil, fmt.Errorf("index build panicked: %v", p)
		}
	}()
	id := fmt.Sprintf("%s/%s#%d", key.Corpus, key.Strategy, attempt)
	if ferr := inj.Fire(fault.SiteIndexBuild, id); ferr != nil {
		return nil, ferr
	}
	return build()
}

// Shutdown stops intake and drains: queued, parked and running runs and
// session versions continue to completion unless ctx expires first, at
// which point everything in flight is cancelled and Shutdown waits for
// the workers to observe it. Returns ctx.Err() when the drain was cut
// short.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.pool.Close()
	}
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.pool.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.baseCancel() // cancel in-flight runs; loop notices within a step
		<-drained
		return ctx.Err()
	}
}

// restore rebuilds the manager's run table from recovered state — the
// POST /runs runs here, the versions through SessionHub.restore. Every run
// comes back exactly as its record says; interrupted ones (queued or
// running at crash time) wait for recoverPending. It must run before the
// server accepts requests — it assumes an empty run table.
func (m *Manager) restore(st *persistState) {
	m.nextID = max(m.nextID, st.NextRunID)
	for _, id := range st.RunOrder {
		if rec := st.Runs[id]; rec != nil {
			run := newRun(*rec)
			run.task = func() { m.execute(run) }
			m.adopt(run)
			m.order = append(m.order, id)
		}
	}
}

// adopt adds a restored run to the run table, and to the pending runs
// when the crash interrupted it. Like restore, it runs before serving.
func (m *Manager) adopt(run *Run) {
	m.runs[run.ID] = run
	if !run.rec.State.terminal() {
		m.pending = append(m.pending, run)
	}
}

// recoverPending re-queues every restored interrupted run — POST /runs
// runs, then versions in session and index order — for deterministic
// re-execution: the re-run's curve is byte-identical to an uninterrupted
// one. The requeue record resets the run to queued and drops its stale
// partial curve. It is separate from restore because the embedder
// registers the runs' corpora after the server is built; call it once
// that is done. Returns the numbers of runs and of versions re-queued.
func (m *Manager) recoverPending() (runs, versions int) {
	m.mu.Lock()
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()

	for _, run := range pending {
		m.transition(run, &walRecord{Type: recRunRequeue, ID: run.ID})
		if !m.pool.TrySubmit(run.task) {
			// A recovery flood larger than the queue: fail the overflow runs
			// loudly rather than dropping them silently. Clients see why.
			m.transition(run, &walRecord{Type: recRunFinish, ID: run.ID, At: time.Now().UnixNano(),
				State: StateFailed, Err: "recovery re-queue failed: run queue full"})
			m.metrics.RunsFailed.Add(1)
			m.log.Error("run recovery failed", "run", run.ID, "error", "queue full")
			continue
		}
		if run.session != nil {
			versions++
			m.metrics.VersionsRecovered.Add(1)
		} else {
			runs++
			m.metrics.RunsRecovered.Add(1)
		}
		m.log.Info("run recovered", "run", run.ID, "corpus", run.rec.Spec.Corpus,
			"task", run.rec.Spec.Task, "requeues", run.Info().Recovered)
	}
	return runs, versions
}

// stateCounts summarizes run states (for /healthz).
func (m *Manager) stateCounts() map[string]int {
	counts := map[string]int{}
	for _, info := range m.List() {
		counts[string(info.State)]++
	}
	return counts
}
