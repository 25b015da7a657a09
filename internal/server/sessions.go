package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"zombie/internal/core"
	"zombie/internal/otrace"
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

// runSpec is the run every version of the session executes as, so one
// validator, one engine config and one execution context serve both
// specs.
func (spec *SessionSpec) runSpec() RunSpec {
	rs := RunSpec{Corpus: spec.Corpus, Task: spec.Task, Policy: spec.Policy, K: spec.K, Seed: spec.Seed,
		MaxInputs: spec.MaxInputs, EvalEvery: spec.EvalEvery, EarlyStop: spec.EarlyStop, Batch: spec.Batch}
	rs.normalize()
	return rs
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
// Versions execute one at a time in index order — each warm-starts from
// the previous successful one — while different sessions share the
// manager's pool (see SessionHub.dispatch).
type Session struct {
	ID      string
	spec    SessionSpec
	created time.Time

	mu       sync.Mutex
	versions []*sessionVersion
	// parked holds versions a worker dequeued while an earlier version of
	// the session was still due or executing; dispatch runs them later.
	parked []*sessionVersion
	// workspace is built lazily by the first version to execute; only the
	// executing version touches it, so it needs no lock.
	workspace *recipe.Session

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

// SessionHub is the server's table of recipe workspaces. It owns no
// workers: version runs execute on the manager's pool, and the hub reads
// the corpus registry, both caches, metrics, store, defaults and logger
// through the manager — the cache sharing is what makes "edit one part,
// pay for one part" hold across a session's versions.
type SessionHub struct {
	m *Manager

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string
	nextID   int
}

// Create validates the spec and registers an empty session.
func (h *SessionHub) Create(spec SessionSpec) (*Session, error) {
	spec.normalize()
	if err := h.m.validate(spec.runSpec()); err != nil {
		return nil, err
	}
	if d := *spec.Decay; d != d || d < 0 || d > 1 {
		return nil, fmt.Errorf("server: decay must be in [0,1], got %v", d)
	}
	var s *Session
	err := h.m.admit(func() error {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.nextID++
		s = &Session{ID: "s" + strconv.Itoa(h.nextID), spec: spec, created: time.Now()}
		if s.spec.Name == "" {
			s.spec.Name = s.ID
		}
		if spec.Spans {
			s.tracer = otrace.New(s.ID, otrace.DefaultCapacity)
			h.m.metrics.ObserveTracer(s.tracer)
		}
		h.sessions[s.ID] = s
		h.order = append(h.order, s.ID)
		h.m.store.record(&walRecord{Type: recSessCreate, ID: s.ID, Num: h.nextID, Session: &s.spec, At: s.created.UnixNano()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	h.m.log.Info("session created", "session", s.ID, "corpus", spec.Corpus, "task", spec.Task)
	return s, nil
}

// Get returns the session by ID.
func (h *SessionHub) Get(id string) (*Session, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.sessions[id]
	return s, ok
}

// all returns the sessions in creation order.
func (h *SessionHub) all() []*Session {
	h.mu.Lock()
	defer h.mu.Unlock()
	sessions := make([]*Session, 0, len(h.order))
	for _, id := range h.order {
		sessions = append(sessions, h.sessions[id])
	}
	return sessions
}

// List returns session snapshots in creation order.
func (h *SessionHub) List() []SessionInfo {
	sessions := h.all()
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
		h.m.store.record(rec)
	}
	return ok
}

// Submit validates and compiles the recipe spec, then admits it as the
// session's next version (see Manager.admit).
func (h *SessionHub) Submit(s *Session, spec *recipe.Spec) (int, error) {
	compiled, err := spec.Recipe()
	if err != nil {
		return 0, err
	}
	var ver int
	err = h.m.admit(func() error {
		s.mu.Lock()
		ver = len(s.versions) + 1
		submit := &walRecord{Type: recVerSubmit, ID: s.ID, Ver: ver, Recipe: spec}
		v := &sessionVersion{rec: newVersionRecord(submit), recipe: compiled}
		s.versions = append(s.versions, v)
		s.mu.Unlock()
		// Journal the submission before the enqueue: a worker may start the
		// version the instant it is admitted.
		h.m.store.record(submit)
		return h.enqueue(s, v)
	})
	if err != nil {
		return 0, err
	}
	return ver, nil
}

// enqueue admits a version to the manager's pool — the one path a live
// submit and recovery share. A full queue fails the version on its record,
// so its terminal state survives a restart like any other.
func (h *SessionHub) enqueue(s *Session, v *sessionVersion) error {
	if h.m.pool.TrySubmit(func() { h.dispatch(s, v) }) {
		return nil
	}
	h.finishVersion(s, v, nil, ErrQueueFull)
	return h.m.queueFull()
}

// dispatch is a version's pool task. A session executes one version at a
// time, in index order, because each warm-starts from the one before; but
// no worker ever waits for another version. The worker parks v on the
// session and then executes parked versions for as long as the session's
// next due one — its lowest-index unfinished version — is among them. A
// worker whose version is not yet due (an earlier one is executing, or is
// still on its way out of the pool queue) returns to the pool at once,
// leaving v to whichever worker reaches the earlier version.
func (h *SessionHub) dispatch(s *Session, v *sessionVersion) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parked = append(s.parked, v)
	for {
		i := slices.IndexFunc(s.versions, func(w *sessionVersion) bool { return !w.rec.State.terminal() })
		if i < 0 {
			return
		}
		j := slices.Index(s.parked, s.versions[i])
		if j < 0 {
			return
		}
		due := s.parked[j]
		s.parked = slices.Delete(s.parked, j, j+1)
		s.mu.Unlock()
		h.execute(s, due)
		s.mu.Lock()
	}
}

// execute runs one version to a terminal state; dispatch makes it the only
// version of its session executing.
func (h *SessionHub) execute(s *Session, v *sessionVersion) {
	ctx, cancel := h.m.runContext(s.spec.runSpec())
	defer cancel()
	if !h.transition(s, v, &walRecord{Type: recVerStart, ID: s.ID, Ver: v.rec.Index, At: time.Now().UnixNano()}) {
		return
	}
	if s.workspace == nil {
		ws, err := h.buildWorkspace(ctx, s)
		if err != nil {
			h.finishVersion(s, v, nil, err)
			return
		}
		s.workspace = ws
	}
	res, err := s.workspace.Submit(ctx, v.recipe)
	h.finishVersion(s, v, res, err)
}

// finishVersion records a version's terminal state: failed with err, or
// done with res.
func (h *SessionHub) finishVersion(s *Session, v *sessionVersion, res *recipe.Version, err error) {
	rec := &walRecord{Type: recVerFinish, ID: s.ID, Ver: v.rec.Index, At: time.Now().UnixNano(), State: StateDone}
	if err != nil {
		rec.State, rec.Err = StateFailed, err.Error()
	} else {
		rec.Result = versionDigest(res)
	}
	h.transition(s, v, rec)
	if err != nil {
		h.m.log.Error("session version finished", "session", s.ID, "version", v.rec.Index, "error", err.Error())
		return
	}
	h.m.log.Info("session version finished", "session", s.ID, "version", v.rec.Index,
		"quality", res.Run.FinalQuality, "inputs", res.Run.InputsProcessed,
		"cache_hits", res.Run.CacheHits, "warm_start", res.WarmStart.Applied)
}

// buildWorkspace assembles the session's task, index groups (through the
// manager's index cache) and recipe workspace. The first version to
// execute runs it.
func (h *SessionHub) buildWorkspace(ctx context.Context, s *Session) (*recipe.Session, error) {
	spec := s.spec.runSpec()
	store, err := h.m.registry.Get(spec.Corpus)
	if err != nil {
		return nil, err
	}
	task, grouper, err := workload.Build(spec.Task, store, 0, rng.New(spec.Seed).Split("task"))
	if err != nil {
		return nil, err
	}
	cfg, err := h.m.engineConfig(spec)
	if err != nil {
		return nil, err
	}
	groups, err := h.m.indexGroups(ctx, spec, store, grouper, cfg.Faults)
	if err != nil {
		return nil, err
	}
	cfg.Cache = h.m.featCache
	cfg.Obs = h.m.metrics.Registry()
	// Every version's engine shares the session tracer (nil unless the
	// session asked for spans), so one tree spans the whole edit history.
	cfg.Tracer = s.tracer
	ws, err := recipe.NewSession(s.spec.Name, task, groups, recipe.Config{Engine: cfg, Decay: *s.spec.Decay})
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
				h.m.log.Warn("session version restore skipped", "session", s.ID,
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

// restore rebuilds the hub's session table from recovered state. Every
// version comes back exactly as its record says — terminal versions with
// their curves, diffs, and warm-start arms, interrupted ones as the crash
// left them, waiting for recoverPending to re-queue them. Must run before
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
			h.m.metrics.ObserveTracer(s.tracer)
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
				h.m.log.Warn("session version dropped on restore: recipe no longer compiles",
					"session", id, "version", rec.Index)
				continue
			}
			s.versions = append(s.versions, &sessionVersion{rec: *rec, recipe: compiled})
		}
		h.sessions[id] = s
		h.order = append(h.order, id)
	}
}

// recoverPending re-submits every unfinished version — at start-up, the
// ones a crash interrupted — through the live submit's enqueue, in session
// then index order; dispatch re-executes them one at a time per session,
// each warm-starting from the one before. Call it once, after the corpora
// are registered. Returns the number re-queued.
func (h *SessionHub) recoverPending() int {
	recovered := 0
	for _, s := range h.all() {
		s.mu.Lock()
		var pending []*sessionVersion
		for _, v := range s.versions {
			if !v.rec.State.terminal() {
				pending = append(pending, v)
			}
		}
		s.mu.Unlock()
		for _, v := range pending {
			if err := h.enqueue(s, v); err != nil {
				h.m.log.Error("session version recovery failed", "session", s.ID, "version", v.rec.Index, "error", err.Error())
				continue
			}
			recovered++
			h.m.log.Info("session version recovered", "session", s.ID, "version", v.rec.Index)
		}
	}
	return recovered
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
