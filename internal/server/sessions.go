package server

import (
	"context"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/otrace"
	"zombie/internal/recipe"
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

// normalize fills spec defaults in place: RunSpec's, and the decay.
func (spec *SessionSpec) normalize() {
	rs := spec.runSpec()
	spec.Policy, spec.K, spec.Seed = rs.Policy, rs.K, rs.Seed
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

// Session is a server-side recipe workspace: a fixed (corpus, task,
// policy, k, seed) context plus an ordered history of recipe versions,
// each a run (ID <session>.v<N>) in the manager's run table. Versions
// execute one at a time in index order — each warm-starts from the latest
// done one — while different sessions share the manager's pool (see
// SessionHub.dispatch).
type Session struct {
	ID      string
	spec    SessionSpec
	created time.Time

	mu       sync.Mutex
	versions []*Run
	// parked holds versions a worker dequeued while an earlier version of
	// the session was still due or executing; dispatch runs them later.
	parked []*Run
	// workspace is built lazily by the first version to execute; executing
	// is the version it is running. Only the executing version touches
	// either, so they need no lock.
	workspace *recipe.Session
	executing *Run

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

// sessionVersionInfo is the wire form of one recipe version, rendered
// from its run record: state, the compiled recipe, the diff against the
// latest done version before it, the learning curve, and the cache-reuse
// + warm-start stats the workspace exists to surface.
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
// workers and no lifecycle: versions are runs the manager executes on its
// pool, and the hub reads the corpus registry, both caches, metrics,
// store, defaults and logger through the manager — the cache sharing is
// what makes "edit one part, pay for one part" hold across a session's
// versions.
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
		id := "s" + strconv.Itoa(h.nextID)
		if spec.Name == "" {
			spec.Name = id
		}
		s = h.addLocked(id, spec, time.Now())
		h.m.store.record(&walRecord{Type: recSessCreate, ID: s.ID, Num: h.nextID, Session: &s.spec, At: s.created.UnixNano()})
		return nil
	})
	if err != nil {
		return nil, err
	}
	h.m.log.Info("session created", "session", s.ID, "corpus", spec.Corpus, "task", spec.Task)
	return s, nil
}

// addLocked registers a new or restored session, with a span tracer when
// its spec asks for spans — spans are not journaled, so a restored
// session's tracer starts empty. h.mu must be held.
func (h *SessionHub) addLocked(id string, spec SessionSpec, created time.Time) *Session {
	s := &Session{ID: id, spec: spec, created: created}
	if spec.Spans {
		s.tracer = otrace.New(id, otrace.DefaultCapacity)
		h.m.metrics.ObserveTracer(s.tracer)
	}
	h.sessions[id] = s
	h.order = append(h.order, id)
	return s
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
	sessions := make([]*Session, len(h.order))
	for i, id := range h.order {
		sessions[i] = h.sessions[id]
	}
	h.mu.Unlock()
	out := make([]SessionInfo, len(sessions))
	for i, s := range sessions {
		out[i] = s.Info()
	}
	return out
}

// Submit validates and compiles the recipe spec, then admits it as the
// session's next version: a run with ID <session>.v<N> journaled and
// enqueued through Manager.enqueue like any other (see Manager.admit).
func (h *SessionHub) Submit(s *Session, spec *recipe.Spec) (int, error) {
	compiled, err := spec.Recipe()
	if err != nil {
		return 0, err
	}
	if got, want := compiled.Feature().NumClasses(), taskClasses(s.spec.Task); got != want {
		return 0, fmt.Errorf("server: recipe %s has %d classes, task %s expects %d", compiled.Name(), got, s.spec.Task, want)
	}
	runSpec := s.spec.runSpec()
	var ver int
	err = h.m.admit(func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		ver = len(s.versions) + 1
		submit := &walRecord{Type: recRunSubmit, ID: versionRunID(s.ID, ver), At: time.Now().UnixNano(),
			Spec: &runSpec, Ver: ver, Recipe: spec}
		v := newRun(newRunRecord(submit))
		h.attach(s, v, compiled)
		if err := h.m.enqueue(submit, v); err != nil {
			return err
		}
		s.versions = append(s.versions, v)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return ver, nil
}

// taskClasses is the class count of the task's learner (see
// workload.Build), which every version's recipe must match.
func taskClasses(task string) int {
	if task == "songs" {
		return corpus.DefaultSongConfig().Genres
	}
	return 2 // wiki and image are binary
}

// attach makes v a version of s: its engine call is the session
// workspace's (compiled is nil for a restored recipe that no longer
// compiles, which fails the version if it ever executes), and its pool
// task is dispatch.
func (h *SessionHub) attach(s *Session, v *Run, compiled *recipe.Recipe) {
	v.session, v.recipe = s, compiled
	v.task = func() { h.dispatch(v) }
}

// dispatch is a version's pool task. A session executes one version at a
// time, in index order, because each builds on the ones before it; but
// no worker ever waits for another version. The worker parks v on the
// session and then executes parked versions for as long as the session's
// next due one — its lowest-index unfinished version — is among them. A
// worker whose version is not yet due (an earlier one is executing, or is
// still on its way out of the pool queue) returns to the pool at once,
// leaving v to whichever worker reaches the earlier version. A version
// cancelled while queued or parked is finished, so it is never due.
func (h *SessionHub) dispatch(v *Run) {
	s := v.session
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parked = append(s.parked, v)
	for {
		s.parked = slices.DeleteFunc(s.parked, func(w *Run) bool { return w.State().terminal() })
		i := slices.IndexFunc(s.versions, func(w *Run) bool { return !w.State().terminal() })
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
		h.m.execute(due)
		s.mu.Lock()
	}
}

// runVersion is a version's engine call, the one step of Manager.execute
// that differs from a run's: the session workspace — built by the first
// version to execute — runs the recipe, warm-starting from and diffing
// against the latest done version.
func (m *Manager) runVersion(ctx context.Context, v *Run) (*recipe.Version, error) {
	s := v.session
	if s.workspace == nil {
		ws, err := m.buildWorkspace(ctx, s)
		if err != nil {
			return nil, err
		}
		s.workspace = ws
	}
	s.executing = v
	return s.workspace.Submit(ctx, v.recipe)
}

// buildWorkspace assembles the session's recipe workspace over its task
// and index groups (through the manager's index cache). Every version's
// engine shares the session tracer (nil unless the session asked for
// spans), so one tree spans the whole edit history; its curve points go
// to whichever version is executing.
func (m *Manager) buildWorkspace(ctx context.Context, s *Session) (*recipe.Session, error) {
	spec := s.spec.runSpec()
	store, task, grouper, cfg, err := m.prepare(spec, s.tracer, func(p core.CurvePoint) {
		m.transition(s.executing, &walRecord{Type: recRunPoint, ID: s.executing.ID, Point: &p})
	})
	if err != nil {
		return nil, err
	}
	groups, err := m.indexGroups(ctx, spec, store, grouper, cfg.Faults)
	if err != nil {
		return nil, err
	}
	ws, err := recipe.NewSession(s.spec.Name, task, groups, recipe.Config{Engine: cfg, Decay: *s.spec.Decay})
	if err != nil {
		return nil, err
	}
	// Re-seed the workspace with the session's done versions from earlier
	// processes, so the next version diffs against — and warm-starts from
	// the persisted arm snapshots of — the latest done one, exactly as the
	// live workspace records only versions that end done. (The arms are
	// all the workspace reads of a restored run.)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.versions {
		v.mu.Lock()
		rec := v.rec
		v.mu.Unlock()
		if sum := rec.Summary; rec.State == StateDone && sum != nil && sum.WarmStart != nil {
			if _, err := ws.Restore(v.recipe, &core.RunResult{Arms: sum.Arms}, *sum.WarmStart); err != nil {
				m.log.Warn("session version restore skipped", "run", v.ID, "error", err.Error())
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
		info.Versions = append(info.Versions, v.versionInfo())
	}
	if s.tracer != nil {
		info.Spans = s.tracer.Len()
		info.SpansDropped = s.tracer.Dropped()
	}
	return info
}

// versionInfo renders a version's wire form from its run record.
func (v *Run) versionInfo() sessionVersionInfo {
	v.mu.Lock()
	defer v.mu.Unlock()
	rec := &v.rec
	vi := sessionVersionInfo{Version: rec.Ver, State: rec.State, Error: rec.Err}
	if rec.Recipe != nil {
		vi.Recipe = rec.Recipe.Name
	}
	if v.recipe != nil {
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
	}
	for _, p := range rec.Curve {
		vi.Curve = append(vi.Curve, toCurveJSON(p))
	}
	if sum := rec.Summary; sum != nil {
		if v.recipe != nil {
			vi.Fingerprint = v.recipe.Fingerprint()
		}
		vi.Final = sum.FinalQuality
		vi.Inputs = sum.InputsProcessed
		vi.Stop = sum.Stop
		vi.CacheHits = sum.CacheHits
		vi.CacheMisses = sum.CacheMisses
		if d := sum.Diff; d != nil {
			vi.Diff = d
			vi.SharedParts = d.SharedParts
			vi.TotalParts = d.TotalParts
		}
		if ws := sum.WarmStart; ws != nil {
			vi.WarmStart = *ws
		}
		vi.WallMillis = wallMillis(rec.Started, rec.Finished)
	}
	return vi
}

// restore rebuilds the hub's session table from recovered state, and
// hands each session's version runs <session>.v1, .v2, … to the manager's
// run table — terminal ones with their curves, diffs and warm-start arms,
// interrupted ones as the crash left them, for Manager.recoverPending to
// requeue. Must run after Manager.restore and before the server accepts
// requests — it assumes an empty session table.
func (h *SessionHub) restore(st *persistState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nextID = max(h.nextID, st.NextSessionID)
	for _, id := range st.SessionOrder {
		ps := st.Sessions[id]
		if ps == nil {
			continue
		}
		ps.Spec.normalize()
		s := h.addLocked(id, ps.Spec, time.Unix(0, ps.Created))
		for ver := 1; st.Runs[versionRunID(id, ver)] != nil; ver++ {
			v := newRun(*st.Runs[versionRunID(id, ver)])
			// The recipe is recompiled from its journaled spec. It compiled
			// when journaled, so a failure means a code change between
			// processes; the version keeps its history and fails if it
			// executes again.
			var compiled *recipe.Recipe
			if v.rec.Recipe != nil {
				compiled, _ = v.rec.Recipe.Recipe()
			}
			h.attach(s, v, compiled)
			s.versions = append(s.versions, v)
			h.m.adopt(v)
		}
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
		writeSubmitError(w, err)
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
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"session": sess.ID,
		"version": version,
		"state":   StateQueued,
	})
}
