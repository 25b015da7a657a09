package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/featcache"
	"zombie/internal/index"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/parallel"
	"zombie/internal/recipe"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// defaultSessionDecay is the warm-start decay a session spec inherits when
// it does not set its own. Half trust is the conservative middle: enough
// seeded pulls to skip most of the re-explore cost, small enough that a
// genuinely different edit can overturn the prior quickly.
const defaultSessionDecay = 0.5

// SessionSpec is the POST /sessions request body: the fixed context every
// recipe version in the workspace runs against.
type SessionSpec struct {
	// Name labels the session (defaults to its ID).
	Name string `json:"name,omitempty"`
	// Corpus and Task fix what the session's runs evaluate against.
	Corpus string `json:"corpus"`
	Task   string `json:"task"`
	// Policy is the bandit policy spec (default eps-greedy:0.1).
	Policy string `json:"policy,omitempty"`
	// K is the index group count (default 32).
	K int `json:"k,omitempty"`
	// Seed drives every run in the session (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Decay is the warm-start decay in [0,1]; omitted means 0.5, explicit
	// 0 disables warm-starting (every version runs cold).
	Decay *float64 `json:"decay,omitempty"`
	// MaxInputs / EvalEvery / EarlyStop / Batch mirror RunSpec.
	MaxInputs int  `json:"max_inputs,omitempty"`
	EvalEvery int  `json:"eval_every,omitempty"`
	EarlyStop bool `json:"early_stop,omitempty"`
	Batch     int  `json:"batch,omitempty"`
	// Spans gives the session one span tracer shared by every version run,
	// served at GET /sessions/{id}/spans: the accumulated tree shows how
	// each version's extraction cost shrinks as the shared cache warms, and
	// the per-part cells attribute what remains to the recipe parts that
	// actually changed. Observational, like RunSpec.Spans.
	Spans bool `json:"spans,omitempty"`
}

func (spec *SessionSpec) normalize() {
	if spec.Policy == "" {
		spec.Policy = "eps-greedy:0.1"
	}
	if spec.K == 0 {
		spec.K = 32
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Decay == nil {
		d := defaultSessionDecay
		spec.Decay = &d
	}
}

// sessionVersion is one submitted recipe version: its lifecycle record
// (guarded by the session's mu, advanced through SessionHub.transition
// only; rec.Index is immutable) and the recipe compiled from rec.Recipe.
type sessionVersion struct {
	rec    versionRecord
	recipe *recipe.Recipe
}

// Session is a server-side recipe workspace: a fixed (corpus, task,
// policy, k, seed) context plus an ordered history of recipe versions.
// Versions run sequentially — each warm-starts from the previous
// successful one — so the session serializes its own executions while
// different sessions run concurrently on the hub's pool.
type Session struct {
	ID      string
	spec    SessionSpec
	created time.Time

	execMu sync.Mutex // serializes version runs

	mu        sync.Mutex
	workspace *recipe.Session // built lazily by the first run
	versions  []*sessionVersion

	// tracer is the session's span buffer (nil unless spec.Spans), shared
	// by every version run so the tree accumulates the whole workspace's
	// history. Spans are not journaled; a restored session starts empty.
	tracer *otrace.Tracer
}

// SessionInfo is the wire form of a session.
type SessionInfo struct {
	ID          string               `json:"id"`
	Name        string               `json:"name"`
	Corpus      string               `json:"corpus"`
	Task        string               `json:"task"`
	Policy      string               `json:"policy"`
	K           int                  `json:"k"`
	Seed        int64                `json:"seed"`
	Decay       float64              `json:"decay"`
	CreatedUnix int64                `json:"created_unix"`
	Versions    []sessionVersionInfo `json:"versions"`
	// Spans / SpansDropped report the session tracer's buffer (sessions
	// created with "spans": true only); the tree itself is served at
	// GET /sessions/{id}/spans.
	Spans        int   `json:"spans,omitempty"`
	SpansDropped int64 `json:"spans_dropped,omitempty"`
}

// sessionPartInfo is the wire form of one compiled recipe part.
type sessionPartInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Version     int    `json:"version"`
	Fingerprint string `json:"fingerprint"`
}

// sessionVersionInfo is the wire form of one recipe version: state, the
// compiled recipe, the diff against the previous version, the learning
// curve, and the cache-reuse + warm-start stats the workspace exists to
// surface.
type sessionVersionInfo struct {
	Version     int                   `json:"version"`
	State       RunState              `json:"state"`
	Error       string                `json:"error,omitempty"`
	Recipe      string                `json:"recipe"`
	Fingerprint string                `json:"fingerprint,omitempty"`
	Parts       []sessionPartInfo     `json:"parts"`
	Diff        *recipe.Diff          `json:"diff,omitempty"`
	Curve       []curvePointJSON      `json:"curve,omitempty"`
	Final       float64               `json:"final_quality"`
	Inputs      int                   `json:"inputs_processed"`
	Stop        string                `json:"stop,omitempty"`
	CacheHits   int64                 `json:"cache_hits"`
	CacheMisses int64                 `json:"cache_misses"`
	SharedParts int                   `json:"shared_parts"`
	TotalParts  int                   `json:"total_parts"`
	WarmStart   recipe.WarmStartStats `json:"warm_start"`
	WallMillis  int64                 `json:"wall_ms,omitempty"`
}

// SessionHub owns the server's session workspaces and the pool their
// version runs execute on. It shares the manager's corpus registry, index
// cache and extraction cache — the cache sharing is what makes "edit one
// part, pay for one part" hold across a session's versions.
type SessionHub struct {
	registry  *Registry
	idxCache  *IndexCache
	featCache *featcache.Cache
	obsReg    *obs.Registry
	store     *DurableStore // nil without a state directory
	defaults  RunDefaults
	log       *slog.Logger

	pool       *parallel.Pool
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string
	nextID   int
	closed   bool
	// pending holds restored interrupted versions awaiting
	// recoverPending (see Manager.pending).
	pending []pendingVersion
}

// pendingVersion is one restored interrupted version awaiting re-queue.
type pendingVersion struct {
	s *Session
	v *sessionVersion
}

// NewSessionHub starts a hub whose version runs execute on workers
// goroutines over a queue of queueCap pending runs. store receives every
// session lifecycle record; nil means state dies with the process.
func NewSessionHub(registry *Registry, idxCache *IndexCache, featCache *featcache.Cache, obsReg *obs.Registry, store *DurableStore, workers, queueCap int, defaults RunDefaults) *SessionHub {
	ctx, cancel := context.WithCancel(context.Background())
	return &SessionHub{
		registry:   registry,
		idxCache:   idxCache,
		featCache:  featCache,
		obsReg:     obsReg,
		store:      store,
		defaults:   defaults,
		log:        obs.NopLogger(),
		pool:       parallel.NewPool(workers, queueCap),
		baseCtx:    ctx,
		baseCancel: cancel,
		sessions:   map[string]*Session{},
	}
}

// SetLogger replaces the hub's lifecycle logger.
func (h *SessionHub) SetLogger(l *slog.Logger) {
	if l != nil {
		h.log = l
	}
}

// engineConfig translates a session spec into the template engine config
// its versions run with (cache and telemetry attached at run time).
func (h *SessionHub) engineConfig(spec SessionSpec) core.Config {
	cfg := core.Config{
		Policy:         bandit.Spec(spec.Policy),
		Seed:           spec.Seed,
		MaxInputs:      spec.MaxInputs,
		EvalEvery:      spec.EvalEvery,
		BatchSize:      spec.Batch,
		MaxFailureFrac: h.defaults.MaxFailureFrac,
		Faults:         h.defaults.Faults,
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = h.defaults.Batch
	}
	if spec.EarlyStop {
		cfg.EarlyStop = core.EarlyStopConfig{Enabled: true}
	}
	return cfg
}

// Create validates the spec and registers an empty session.
func (h *SessionHub) Create(spec SessionSpec) (*Session, error) {
	spec.normalize()
	if _, err := h.registry.Get(spec.Corpus); err != nil {
		return nil, err
	}
	validTask := false
	for _, n := range workload.Names() {
		if spec.Task == n {
			validTask = true
		}
	}
	if !validTask {
		return nil, fmt.Errorf("server: unknown task %q (want one of %v)", spec.Task, workload.Names())
	}
	if spec.K < 1 {
		return nil, fmt.Errorf("server: k must be >= 1, got %d", spec.K)
	}
	if d := *spec.Decay; d != d || d < 0 || d > 1 {
		return nil, fmt.Errorf("server: decay must be in [0,1], got %v", d)
	}
	// Validate the engine template (policy spec included) eagerly so a bad
	// session is a 400 at create time, not a failed first run.
	if _, err := core.New(h.engineConfig(spec)); err != nil {
		return nil, err
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrShuttingDown
	}
	h.nextID++
	s := &Session{ID: "s" + strconv.Itoa(h.nextID), spec: spec, created: time.Now()}
	if s.spec.Name == "" {
		s.spec.Name = s.ID
	}
	if spec.Spans {
		s.tracer = otrace.New(s.ID, otrace.DefaultCapacity)
		observeTracer(h.obsReg, s.tracer)
	}
	h.sessions[s.ID] = s
	h.order = append(h.order, s.ID)
	h.store.record(&walRecord{Type: recSessCreate, ID: s.ID, Num: h.nextID, Session: &s.spec, At: s.created.UnixNano()})
	h.log.Info("session created", "session", s.ID, "corpus", spec.Corpus, "task", spec.Task)
	return s, nil
}

// Get returns the session by ID.
func (h *SessionHub) Get(id string) (*Session, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[id]
	return s, ok
}

// List returns session snapshots in creation order.
func (h *SessionHub) List() []SessionInfo {
	h.mu.Lock()
	ids := make([]string, len(h.order))
	copy(ids, h.order)
	sessions := make([]*Session, 0, len(ids))
	for _, id := range ids {
		sessions = append(sessions, h.sessions[id])
	}
	h.mu.Unlock()
	out := make([]SessionInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.Info())
	}
	return out
}

// transition applies rec to the version under its session's lock and, when
// the version's reducer accepted it, hands the same record to the store —
// the one way a live version changes lifecycle state.
func (h *SessionHub) transition(s *Session, v *sessionVersion, rec *walRecord) bool {
	s.mu.Lock()
	ok := v.rec.apply(rec)
	s.mu.Unlock()
	if ok {
		h.store.record(rec)
	}
	return ok
}

// finishRecord builds the version-finish record for a version that ended
// with err (failed) or res (done).
func finishRecord(s *Session, v *sessionVersion, res *recipe.Version, err error) *walRecord {
	rec := &walRecord{Type: recVerFinish, ID: s.ID, Ver: v.rec.Index, At: time.Now().UnixNano()}
	if err != nil {
		rec.State, rec.Err = StateFailed, err.Error()
	} else {
		rec.State, rec.Result = StateDone, versionDigest(res)
	}
	return rec
}

// Submit validates and compiles the recipe spec, then enqueues it as the
// session's next version. The hub's lock is held throughout, so a submit
// racing Shutdown is either rejected whole — nothing appended, nothing
// journaled — or enqueued before the pool closes.
func (h *SessionHub) Submit(s *Session, spec *recipe.Spec) (int, error) {
	compiled, err := spec.Recipe()
	if err != nil {
		return 0, err
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, ErrShuttingDown
	}
	s.mu.Lock()
	submit := &walRecord{Type: recVerSubmit, ID: s.ID, Ver: len(s.versions) + 1, Recipe: spec}
	v := &sessionVersion{rec: newVersionRecord(submit), recipe: compiled}
	s.versions = append(s.versions, v)
	s.mu.Unlock()
	// Journal the submission before the enqueue (a worker may start the
	// version immediately); a failed enqueue journals the failure so the
	// version's terminal state survives a restart like any other.
	h.store.record(submit)
	if !h.pool.TrySubmit(func() { h.execute(s, v) }) {
		h.transition(s, v, finishRecord(s, v, nil, ErrQueueFull))
		return 0, fmt.Errorf("%w (%d pending)", ErrQueueFull, h.pool.Cap())
	}
	return submit.Ver, nil
}

// execute runs one queued version to a terminal state. The session's
// execMu guarantees versions run one at a time in submission order (the
// hub pool is FIFO), which the warm-start chain depends on.
func (h *SessionHub) execute(s *Session, v *sessionVersion) {
	s.execMu.Lock()
	defer s.execMu.Unlock()

	var ctx context.Context
	var cancel context.CancelFunc
	if h.defaults.Timeout > 0 {
		ctx, cancel = context.WithTimeout(h.baseCtx, h.defaults.Timeout)
	} else {
		ctx, cancel = context.WithCancel(h.baseCtx)
	}
	defer cancel()

	if !h.transition(s, v, &walRecord{Type: recVerStart, ID: s.ID, Ver: v.rec.Index, At: time.Now().UnixNano()}) {
		return
	}
	s.mu.Lock()
	ws := s.workspace
	s.mu.Unlock()
	if ws == nil {
		built, err := h.buildWorkspace(ctx, s)
		if err != nil {
			h.finishVersion(s, v, nil, err)
			return
		}
		s.mu.Lock()
		s.workspace = built
		ws = built
		s.mu.Unlock()
	}

	res, err := ws.Submit(ctx, v.recipe)
	h.finishVersion(s, v, res, err)
}

// finishVersion records a version's terminal state.
func (h *SessionHub) finishVersion(s *Session, v *sessionVersion, res *recipe.Version, err error) {
	h.transition(s, v, finishRecord(s, v, res, err))
	if err != nil {
		h.log.Error("session version finished", "session", s.ID, "version", v.rec.Index, "error", err.Error())
		return
	}
	h.log.Info("session version finished", "session", s.ID, "version", v.rec.Index,
		"quality", res.Run.FinalQuality, "inputs", res.Run.InputsProcessed,
		"cache_hits", res.Run.CacheHits, "warm_start", res.WarmStart.Applied)
}

// buildWorkspace assembles the session's task, index groups (through the
// shared singleflight cache) and recipe workspace. It runs once, under the
// session's execMu, when the first version executes.
func (h *SessionHub) buildWorkspace(ctx context.Context, s *Session) (*recipe.Session, error) {
	spec := s.spec
	store, err := h.registry.Get(spec.Corpus)
	if err != nil {
		return nil, err
	}
	task, grouper, err := workload.Build(spec.Task, store, 0, rng.New(spec.Seed).Split("task"))
	if err != nil {
		return nil, err
	}
	key := IndexKey{Corpus: spec.Corpus, Strategy: grouper.Name(), K: spec.K, Seed: spec.Seed}
	groups, err := h.idxCache.Get(ctx, key, func() (*index.Groups, error) {
		return grouper.Group(store, spec.K, rng.New(spec.Seed).Split("index"))
	})
	if err != nil {
		return nil, err
	}
	cfg := h.engineConfig(spec)
	cfg.Cache = h.featCache
	cfg.Obs = h.obsReg
	// Every version's engine shares the session tracer (nil unless the
	// session asked for spans), so one tree spans the whole edit history.
	cfg.Tracer = s.tracer
	ws, err := recipe.NewSession(spec.Name, task, groups, recipe.Config{Engine: cfg, Decay: *spec.Decay})
	if err != nil {
		return nil, err
	}
	// Re-seed the workspace with the session's restored done versions so
	// the next submission diffs against — and warm-starts from the
	// persisted arm snapshots of — pre-restart history, exactly as if the
	// process had never died. (The arms are all the workspace reads of a
	// restored run.)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.versions {
		if res := v.rec.Result; v.rec.State == StateDone && res != nil {
			if _, err := ws.Restore(v.recipe, &core.RunResult{Arms: res.Arms}, res.WarmStart); err != nil {
				h.log.Warn("session version restore skipped", "session", s.ID,
					"version", v.rec.Index, "error", err.Error())
			}
		}
	}
	return ws, nil
}

// Info snapshots the session for the wire.
func (s *Session) Info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SessionInfo{
		ID:          s.ID,
		Name:        s.spec.Name,
		Corpus:      s.spec.Corpus,
		Task:        s.spec.Task,
		Policy:      s.spec.Policy,
		K:           s.spec.K,
		Seed:        s.spec.Seed,
		Decay:       *s.spec.Decay,
		CreatedUnix: s.created.Unix(),
		Versions:    make([]sessionVersionInfo, 0, len(s.versions)),
	}
	for _, v := range s.versions {
		rec := &v.rec
		vi := sessionVersionInfo{
			Version: rec.Index,
			State:   rec.State,
			Error:   rec.Err,
			Recipe:  v.recipe.Name(),
		}
		for _, p := range v.recipe.Parts() {
			ver := p.Version
			if ver == 0 {
				ver = 1
			}
			vi.Parts = append(vi.Parts, sessionPartInfo{
				Name: p.Name, Kind: p.Kind, Version: ver,
				Fingerprint: v.recipe.PartFingerprints()[p.Name],
			})
		}
		if res := rec.Result; res != nil {
			vi.Fingerprint = v.recipe.Fingerprint()
			vi.Curve = make([]curvePointJSON, len(res.Curve))
			for i, p := range res.Curve {
				vi.Curve[i] = toCurveJSON(p)
			}
			vi.Final = res.Final
			vi.Inputs = res.Inputs
			vi.Stop = core.StopReason(res.Stop).String()
			vi.CacheHits = res.CacheHits
			vi.CacheMisses = res.CacheMisses
			if d := res.Diff; d != nil {
				vi.Diff = d
				vi.SharedParts = d.SharedParts
				vi.TotalParts = d.TotalParts
			}
			vi.WarmStart = res.WarmStart
			vi.WallMillis = wallMillis(rec.Started, rec.Finished)
		}
		info.Versions = append(info.Versions, vi)
	}
	if s.tracer != nil {
		info.Spans = s.tracer.Len()
		info.SpansDropped = s.tracer.Dropped()
	}
	return info
}

// SpanSnapshot returns the session tracer's recorded spans; ok is false
// for sessions created without "spans": true.
func (s *Session) SpanSnapshot() (spans []otrace.Span, dropped int64, ok bool) {
	if s.tracer == nil {
		return nil, 0, false
	}
	spans, dropped = s.tracer.Snapshot()
	return spans, dropped, true
}

// Tracer returns the session's span tracer (nil unless spec.Spans).
func (s *Session) Tracer() *otrace.Tracer { return s.tracer }

// restore rebuilds the hub's session table from recovered state. Every
// version comes back exactly as its record says — terminal versions with
// their curves, diffs, and warm-start arms, interrupted ones as the crash
// left them, parked until recoverPending re-queues them. Must run before
// the server accepts requests — it assumes an empty session table.
func (h *SessionHub) restore(st *persistState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID = max(h.nextID, st.NextSessionID)
	for _, id := range st.SessionOrder {
		ps := st.Sessions[id]
		if ps == nil {
			continue
		}
		s := &Session{ID: id, spec: ps.Spec, created: time.Unix(0, ps.Created)}
		if s.spec.Decay == nil {
			d := defaultSessionDecay
			s.spec.Decay = &d
		}
		if s.spec.Spans {
			// Same policy as runs: spans are not journaled, the tracer
			// starts empty and refills as new versions execute.
			s.tracer = otrace.New(id, otrace.DefaultCapacity)
			observeTracer(h.obsReg, s.tracer)
		}
		for _, rec := range ps.Versions {
			// The recipe is recompiled from its journaled spec. It compiled
			// when journaled, so a failure means a code change between
			// processes — the version is dropped rather than served broken.
			var compiled *recipe.Recipe
			if rec.Recipe != nil {
				compiled, _ = rec.Recipe.Recipe()
			}
			if compiled == nil {
				h.log.Warn("session version dropped on restore: recipe no longer compiles",
					"session", id, "version", rec.Index)
				continue
			}
			v := &sessionVersion{rec: *rec, recipe: compiled}
			s.versions = append(s.versions, v)
			if !rec.State.terminal() {
				h.pending = append(h.pending, pendingVersion{s: s, v: v})
			}
		}
		h.sessions[id] = s
		h.order = append(h.order, id)
	}
}

// recoverPending re-queues every restored interrupted version for
// deterministic re-execution through the normal execute path (execMu
// keeps per-session ordering). Call after corpora are registered.
// Returns the number re-queued.
func (h *SessionHub) recoverPending() int {
	h.mu.Lock()
	pending := h.pending
	h.pending = nil
	h.mu.Unlock()

	recovered := 0
	for _, p := range pending {
		p := p
		if !h.pool.TrySubmit(func() { h.execute(p.s, p.v) }) {
			h.transition(p.s, p.v, finishRecord(p.s, p.v, nil, errors.New("recovery re-queue failed: queue full")))
			h.log.Error("session version recovery failed", "session", p.s.ID,
				"version", p.v.rec.Index, "error", "queue full")
			continue
		}
		recovered++
		h.log.Info("session version recovered", "session", p.s.ID, "version", p.v.rec.Index)
	}
	return recovered
}

// Shutdown stops intake and drains in-flight version runs (see
// Manager.Shutdown for the contract).
func (h *SessionHub) Shutdown(ctx context.Context) error {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		h.pool.Close()
	}
	h.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		h.pool.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		h.baseCancel()
		<-drained
		return ctx.Err()
	}
}

// --- HTTP handlers ---

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var spec SessionSpec
	if !readJSON(w, r, &spec) {
		return
	}
	sess, err := s.sessions.Create(spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrShuttingDown) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("Location", "/sessions/"+sess.ID)
	writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.sessions.List())
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleSessionRun(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	var spec recipe.Spec
	if !readJSON(w, r, &spec) {
		return
	}
	version, err := s.sessions.Submit(sess, &spec)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"session": sess.ID,
		"version": version,
		"state":   StateQueued,
	})
}
