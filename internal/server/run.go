package server

import (
	"context"
	"sync"
	"time"

	"zombie/internal/core"
	"zombie/internal/dist"
	"zombie/internal/otrace"
	"zombie/internal/recipe"
	"zombie/internal/trace"
)

// RunState is a run's lifecycle position. Transitions are strictly
// forward: queued → running → {done, failed, cancelled}, with the shortcut
// queued → cancelled for runs cancelled before a worker picked them up.
type RunState string

const (
	StateQueued    RunState = "queued"
	StateRunning   RunState = "running"
	StateDone      RunState = "done"
	StateFailed    RunState = "failed"
	StateCancelled RunState = "cancelled"
)

// terminal reports whether no further transition is possible.
func (s RunState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// RunSpec is a run submission. JSON field names are the HTTP API.
type RunSpec struct {
	// Corpus names a registered corpus; Task picks the workload
	// ("wiki", "songs", "image").
	Corpus string `json:"corpus"`
	Task   string `json:"task"`
	// Mode is zombie (default), scan-random, scan-sequential, or oracle.
	Mode string `json:"mode,omitempty"`
	// Policy is the bandit policy spec (zombie mode; default
	// "eps-greedy:0.1"). K is the number of index groups (default 32).
	Policy string `json:"policy,omitempty"`
	K      int    `json:"k,omitempty"`
	// Seed defaults to 1; FeatureVersion 0 means the task default.
	Seed           int64 `json:"seed,omitempty"`
	FeatureVersion int   `json:"feature_version,omitempty"`
	// Engine knobs, mirroring core.Config.
	MaxInputs int  `json:"max_inputs,omitempty"`
	EvalEvery int  `json:"eval_every,omitempty"`
	EarlyStop bool `json:"early_stop,omitempty"`
	// Batch is core.Config.BatchSize: inputs popped per arm pull. 0 keeps
	// the engine default of 1, the classic per-step loop with
	// byte-identical output; K>1 amortizes selection, evaluation, and —
	// for distributed runs — per-input RPCs into one StepBatch call per
	// owning shard. See DESIGN.md §13.
	Batch int `json:"batch,omitempty"`
	// Trace keeps the run's step events in a bounded trace ring, served
	// live at GET /runs/{id}/trace and as "trace" frames on the curve SSE
	// stream, and as CSV at GET /runs/{id}/events once the run is
	// terminal.
	Trace bool `json:"trace,omitempty"`
	// Spans enables the run's span tracer: one bounded buffer of timing
	// spans (engine phases, dist RPCs, worker-side child spans stitched
	// across processes) served as a tree at GET /runs/{id}/spans and folded
	// into the run info's cost summary. Like Trace, it is observational:
	// curves, arms, and quarantine lists are byte-identical with spans on
	// or off.
	Spans bool `json:"spans,omitempty"`
	// TimeoutMillis is this run's wall-clock deadline; 0 inherits the
	// server's default (Config.RunTimeout). A run over its deadline ends as
	// cancelled-with-partials, marked timed_out in its info.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// MaxFailures overrides core.Config.MaxFailureFrac (0 inherits the
	// server default): the fraction of processed inputs that may be
	// quarantined before the run degrades to its partial results.
	MaxFailures float64 `json:"max_failures,omitempty"`
	// Faults is a fault-injection spec (fault.Parse syntax) evaluated with
	// FaultSeed. Empty inherits the server's injector (normally none);
	// chaos tests submit runs with their own spec.
	Faults    string `json:"faults,omitempty"`
	FaultSeed int64  `json:"fault_seed,omitempty"`
	// Shards > 0 executes the run distributed over that many corpus shards
	// (zombie mode only). The curve is byte-identical to the single-process
	// run for the same seed — shards only change where steps execute.
	// Without worker addresses the shards run on in-process workers.
	Shards int `json:"shards,omitempty"`
	// DistWorkers lists worker base URLs (zombie-serve processes serving
	// /dist/*) to execute the shards over HTTP; its length must match
	// shards when both are set. Empty inherits the server's -dist-workers
	// default, if any.
	DistWorkers []string `json:"dist_workers,omitempty"`
}

// distributed reports whether the spec asks for the sharded execution
// path (mode zombie only; validate applies dist.CheckMode).
func (s *RunSpec) distributed() bool {
	return s.Shards > 0 || len(s.DistWorkers) > 0
}

// traceRingCap bounds each traced run's event ring, the only copy of its
// step events the server keeps. Long runs drop their oldest events; every
// view of the ring (/trace, /events, SSE frames) reports how many.
const traceRingCap = 4096

// streamMsg is one frame of a run's live stream: exactly one of a curve
// point or a trace event. Trace frames carry the ring's drop count as of
// the append, so a stream follower learns the ring wrapped without
// polling the snapshot endpoint.
type streamMsg struct {
	point   *core.CurvePoint
	event   *trace.Event
	dropped int64
}

// Run is one managed run: its lifecycle record (spec, state, timestamps,
// live curve, terminal digest — everything that survives a restart) plus
// the process-local parts around it: the trace ring (traced runs), the
// subscriber fan-out feeding SSE streams, the cancel hook and the engine
// result. All mutable fields are guarded by mu; rec advances through
// transition only; done is closed exactly once, on reaching a terminal
// state.
type Run struct {
	ID string

	mu      sync.Mutex
	rec     runRecord // rec.Spec is immutable after submit and read unlocked
	subs    map[int]chan streamMsg
	nextSub int
	// result is the engine result of a run that finished in this process
	// (nil for a restored run: Info renders from rec.Summary either way).
	result *core.RunResult
	cancel context.CancelFunc
	// task is the run's pool task: Manager.execute for a POST /runs run,
	// SessionHub.dispatch for a session version. session and recipe are
	// set for a version only: the session it belongs to and the compiled
	// recipe its engine call runs (see Manager.runVersion).
	task    func()
	session *Session
	recipe  *recipe.Recipe
	// distTransport / distWorkers record the distribution summary for
	// sharded runs, set by the manager before the run finishes.
	distTransport string
	distWorkers   []dist.WorkerStats

	// ring holds the run's recent step events (nil unless spec.Trace). The
	// engine goroutine appends while HTTP handlers snapshot concurrently;
	// the ring has its own lock, so appends never contend with r.mu. Step
	// events are not journaled (far too dense): a re-executed run refills
	// the ring, a restored terminal run reports zero retained events.
	ring *trace.Ring

	// tracer holds the run's span buffer (nil unless spec.Spans), seeded
	// with the run ID so the trace ID is stable across re-executions. Like
	// the ring it has its own lock; spans are not journaled, so a restored
	// terminal run reports none until re-executed.
	tracer *otrace.Tracer

	done chan struct{}
}

// newRun attaches the process-local parts to a lifecycle record: a fresh
// one at submit, a decoded one at restore. Terminal runs come back with
// their history and a closed Done channel; interrupted (queued/running)
// runs come back as the crash left them, for Manager.recoverPending to
// requeue. The owner sets the pool task (and, for a session version, the
// session and recipe) before the run is enqueued.
func newRun(rec runRecord) *Run {
	r := &Run{
		ID:   rec.ID,
		rec:  rec,
		subs: map[int]chan streamMsg{},
		done: make(chan struct{}),
	}
	if rec.Spec.Trace {
		r.ring = trace.NewRing(traceRingCap)
	}
	if rec.Spec.Spans {
		r.tracer = otrace.New(rec.ID, otrace.DefaultCapacity)
	}
	if rec.State.terminal() {
		close(r.done)
	}
	return r
}

// transition is the one way a live run changes lifecycle state: it applies
// rec to the run's record under the lock and, when the reducer accepted
// it, performs the process-local side effects in the same critical
// section — arm the cancel hook (start), fan the point out to subscribers
// (point), keep the engine result, close every subscriber channel and
// signal Done (finish). It reports whether rec applied; the caller then
// hands the same record to the store. A rejected record (a start that
// lost to a cancel, a finish racing another finish) changes nothing.
func (r *Run) transition(rec *walRecord) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.transitionLocked(rec)
}

func (r *Run) transitionLocked(rec *walRecord) bool {
	if !r.rec.apply(rec) {
		return false
	}
	switch rec.Type {
	case recRunStart:
		r.cancel = rec.cancel
	case recRunPoint:
		// Slow subscribers are skipped rather than blocking the engine loop:
		// SSE consumers that fall more than a channel buffer behind miss
		// interior frames but always see the terminal state via Done.
		r.fanOutLocked(streamMsg{point: rec.Point})
	case recRunFinish:
		r.result = rec.result
		for id, ch := range r.subs {
			delete(r.subs, id)
			close(ch)
		}
		close(r.done)
	}
	return true
}

// RunInfo is the externally visible run snapshot.
type RunInfo struct {
	ID       string   `json:"id"`
	Spec     RunSpec  `json:"spec"`
	State    RunState `json:"state"`
	Error    string   `json:"error,omitempty"`
	Created  string   `json:"created"`
	Started  string   `json:"started,omitempty"`
	Finished string   `json:"finished,omitempty"`
	// CurvePoints is the number of curve samples so far; the curve itself
	// is served by /runs/{id}/curve.
	CurvePoints int `json:"curve_points"`
	// WallMillis is the run's execution wall time in milliseconds, present
	// once the run has both started and reached a terminal state.
	WallMillis int64 `json:"wall_ms,omitempty"`
	// Summary fields, present once the run is terminal with a result.
	InputsProcessed int     `json:"inputs_processed,omitempty"`
	FinalQuality    float64 `json:"final_quality,omitempty"`
	Stop            string  `json:"stop,omitempty"`
	Strategy        string  `json:"strategy,omitempty"`
	// CacheHits / CacheMisses are the run's extraction-cache traffic.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Quarantined counts inputs the run removed after absorbed failures;
	// the full records are in the result's quarantine list.
	Quarantined int `json:"quarantined,omitempty"`
	// PhaseMillis breaks the run's wall time down by inner-loop phase
	// (milliseconds), present once the run is terminal with a result.
	PhaseMillis map[string]float64 `json:"phase_ms,omitempty"`
	// TraceEvents is the number of step events currently retained in the
	// run's trace ring (traced runs only; the ring is bounded, so long runs
	// report the cap).
	TraceEvents int `json:"trace_events,omitempty"`
	// Spans / SpansDropped report the span tracer's buffer (runs submitted
	// with "spans": true only); Cost is the per-run cost attribution built
	// from those spans — wall and CPU seconds by phase × shard × recipe
	// part — present once the run is terminal.
	Spans        int                 `json:"spans,omitempty"`
	SpansDropped int64               `json:"spans_dropped,omitempty"`
	Cost         *otrace.CostSummary `json:"cost,omitempty"`
	// TimedOut marks a cancelled run that hit its deadline rather than a
	// client's DELETE.
	TimedOut bool `json:"timed_out,omitempty"`
	// Transport and Workers describe a distributed run's execution: which
	// transport carried the steps ("local" or "http") and each worker's
	// share. Absent for single-process runs.
	Transport string             `json:"transport,omitempty"`
	Workers   []dist.WorkerStats `json:"workers,omitempty"`
	// Recovered counts how many times this run was interrupted by a server
	// crash and re-queued from the state directory. The curve of a
	// recovered run is byte-identical to an uninterrupted one — recovery
	// re-executes the deterministic engine, it does not splice state.
	Recovered int `json:"recovered,omitempty"`
}

// rfc3339 renders a record timestamp (unix nanoseconds, 0 = unset).
func rfc3339(ns int64) string {
	if ns == 0 {
		return ""
	}
	return time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
}

// wallMillis is the whole milliseconds between two record timestamps, 0
// while either is unset.
func wallMillis(started, finished int64) int64 {
	if started == 0 || finished == 0 {
		return 0
	}
	return (finished - started) / int64(time.Millisecond)
}

// Info snapshots the run.
func (r *Run) Info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := &r.rec
	info := RunInfo{
		ID:          r.ID,
		Spec:        rec.Spec,
		State:       rec.State,
		Error:       rec.Err,
		Created:     rfc3339(rec.Created),
		Started:     rfc3339(rec.Started),
		Finished:    rfc3339(rec.Finished),
		CurvePoints: len(rec.Curve),
		WallMillis:  wallMillis(rec.Started, rec.Finished),
		TimedOut:    rec.TimedOut,
		Recovered:   rec.Recovered,
		Transport:   r.distTransport,
		Workers:     r.distWorkers,
	}
	if s := rec.Summary; s != nil {
		info.InputsProcessed = s.InputsProcessed
		info.FinalQuality = s.FinalQuality
		info.Stop = s.Stop
		info.Strategy = s.Strategy
		info.CacheHits = s.CacheHits
		info.CacheMisses = s.CacheMisses
		info.Quarantined = s.Quarantined
		info.PhaseMillis = s.PhaseMillis
	}
	if r.ring != nil {
		info.TraceEvents = r.ring.Len()
	}
	if r.tracer != nil {
		info.Spans = r.tracer.Len()
		info.SpansDropped = r.tracer.Dropped()
		if rec.State.terminal() {
			spans, dropped := r.tracer.Snapshot()
			info.Cost = otrace.BuildCost(spans, dropped)
		}
	}
	return info
}

// setDist records a sharded run's distribution summary; called by the
// manager once the coordinator has merged the result.
func (r *Run) setDist(transport string, workers []dist.WorkerStats) {
	r.mu.Lock()
	r.distTransport = transport
	r.distWorkers = workers
	r.mu.Unlock()
}

// State returns the current lifecycle state.
func (r *Run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec.State
}

// Curve returns a copy of the learning curve so far.
func (r *Run) Curve() []core.CurvePoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.CurvePoint(nil), r.rec.Curve...)
}

// Result returns the engine result once terminal (nil before, and nil
// forever for runs that failed or were cancelled while queued).
func (r *Run) Result() *core.RunResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.result
}

// appendEvent records a step event into the trace ring and fans it out to
// subscribers. It is the engine's Config.Event bridge, wired only for
// traced runs, and must not block (see transition's point case).
func (r *Run) appendEvent(ev trace.Event) {
	r.ring.Append(ev)
	dropped := r.ring.Dropped()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fanOutLocked(streamMsg{event: &ev, dropped: dropped})
}

func (r *Run) fanOutLocked(msg streamMsg) {
	for _, ch := range r.subs {
		select {
		case ch <- msg:
		default:
		}
	}
}

// SpanSnapshot returns the run's recorded spans (start order, parents
// before children) and how many newer spans the bounded buffer refused.
// ok is false for runs submitted without "spans": true. Safe to call
// while the run executes.
func (r *Run) SpanSnapshot() (spans []otrace.Span, dropped int64, ok bool) {
	if r.tracer == nil {
		return nil, 0, false
	}
	spans, dropped = r.tracer.Snapshot()
	return spans, dropped, true
}

// TraceSnapshot returns the trace ring's retained events (oldest first)
// and how many older ones the ring dropped. ok is false for untraced
// runs. It is safe to call while the run executes.
func (r *Run) TraceSnapshot() (events []trace.Event, dropped int64, ok bool) {
	if r.ring == nil {
		return nil, 0, false
	}
	events, dropped = r.ring.Snapshot()
	return events, dropped, true
}

// Subscribe returns the curve so far plus a channel of subsequent stream
// frames (curve points and, for traced runs, step events). The channel is
// closed when the run finishes; if the run is already terminal the
// returned channel is nil. unsubscribe is safe to call twice.
func (r *Run) Subscribe() (history []core.CurvePoint, ch <-chan streamMsg, unsubscribe func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	history = append([]core.CurvePoint(nil), r.rec.Curve...)
	if r.rec.State.terminal() {
		return history, nil, func() {}
	}
	// Traced runs push one frame per step, far denser than curve points, so
	// the buffer is sized for them.
	c := make(chan streamMsg, 256)
	id := r.nextSub
	r.nextSub++
	r.subs[id] = c
	return history, c, func() {
		r.mu.Lock()
		defer r.mu.Unlock()
		if _, ok := r.subs[id]; ok {
			delete(r.subs, id)
			close(c)
		}
	}
}

// requestCancel asks the run to stop. A queued run is finished on the spot
// with rec (a cancelled run-finish: no worker will ever own it) and the
// call reports true — the caller owns the journal append and the metrics
// increment; a running run gets its context cancelled and reaches
// StateCancelled when the engine loop notices; a terminal run is
// untouched.
func (r *Run) requestCancel(rec *walRecord) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rec.State == StateQueued {
		return r.transitionLocked(rec)
	}
	if r.rec.State == StateRunning && r.cancel != nil {
		r.cancel()
	}
	return false
}
