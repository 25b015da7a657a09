// Package server is zombie's concurrent HTTP service layer: a JSON-over-
// HTTP API (stdlib net/http only) that manages corpora, index builds, and
// engine runs as named resources. Runs execute asynchronously on a bounded
// worker pool with per-run status, cancellation, and live learning-curve
// streaming over Server-Sent Events; index builds are deduplicated through
// a singleflight cache so concurrent runs over the same (corpus, strategy,
// k, seed) share one build.
//
//	POST   /corpora              register a JSONL corpus {name, path, stream}
//	GET    /corpora              list corpora
//	GET    /corpora/{name}       one corpus
//	POST   /runs                 submit a run (RunSpec) -> 202 + RunInfo
//	GET    /runs                 list runs
//	GET    /runs/{id}            run status
//	DELETE /runs/{id}            cancel (queued or running)
//	GET    /runs/{id}/curve      learning curve; ?follow=1 streams SSE
//	                             ("point" + "trace" frames, then "status")
//	GET    /runs/{id}/events     trace ring as CSV once terminal (spec.trace runs)
//	GET    /runs/{id}/trace      trace-ring snapshot as JSON, live mid-run
//	GET    /runs/{id}/spans      span tree + cost attribution (spec.spans
//	                             runs); ?format=chrome emits Chrome
//	                             trace-event JSON for about://tracing
//	GET    /spans                process-level infrastructure spans (cache
//	                             disk IO, journal appends, recovery)
//	POST   /sessions             open a recipe workspace (SessionSpec)
//	GET    /sessions             list sessions
//	GET    /sessions/{id}        session detail: version history with
//	                             per-version curves, diffs, cache-reuse
//	                             and warm-start stats
//	POST   /sessions/{id}/runs   submit a recipe version (recipe.Spec
//	                             JSON) -> 202; version N is the run
//	                             {id}.vN (info, curve, DELETE via
//	                             /runs/{id}.vN, not listed by GET /runs);
//	                             versions run in order, each building on
//	                             the latest done one
//	POST   /dist/{init,holdout,step-batch,finish}
//	                             distributed-run worker endpoints: a
//	                             coordinator drives this server's corpus
//	                             shards through them (dist.NewHandler)
//	DELETE /cache                invalidate the shared extraction cache
//	GET    /healthz              liveness + build info + run-state counts
//	GET    /metrics              expvar-style counter map (extraction-cache
//	                             traffic included); Prometheus text format
//	                             via ?format=prom or Accept: text/plain
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"zombie/internal/buildinfo"
	"zombie/internal/core"
	"zombie/internal/dist"
	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/trace"
)

// Config sizes the server.
type Config struct {
	// Workers is the worker-pool size (default 2): it bounds runs and
	// session versions executing at once, together.
	Workers int
	// QueueCap bounds runs and session versions queued for a worker
	// (default 64); a full queue rejects submissions with 503.
	QueueCap int
	// CacheDir, when non-empty, backs the shared extraction cache with a
	// disk segment store in that directory, so cached extractions survive
	// server restarts. Empty keeps the cache memory-only.
	CacheDir string
	// StateDir, when non-empty, makes the control plane durable: every
	// run and session lifecycle transition is journaled there (a
	// write-ahead log, runs.wal, which is the whole state), and a
	// restarted server replays it, restores run/session history, and re-queues
	// interrupted runs for deterministic re-execution — their curves come
	// out byte-identical to uninterrupted runs. Empty keeps run state
	// in-memory only (lost on restart). Embedders must call Recover once
	// the runs' corpora are registered.
	StateDir string
	// CacheMemMB is the extraction cache's in-memory budget in MiB
	// (default 64).
	CacheMemMB int
	// RunTimeout is the default per-run wall-clock deadline (0 = none); a
	// run's own timeout_ms overrides it. Runs over the deadline end as
	// cancelled-with-partials, marked timed_out.
	RunTimeout time.Duration
	// MaxFailureFrac is the default failure budget for runs that do not set
	// max_failures (0 = the engine's default of 0.5).
	MaxFailureFrac float64
	// Faults injects deterministic failures into every run without its own
	// faults spec — chaos deployments only; normally nil. It is also passed
	// to the extraction cache, covering the cache.read/cache.write sites.
	Faults *fault.Injector
	// DistWorkers lists worker base URLs (other zombie-serve processes
	// serving /dist/*) that sharded runs execute over by default: a run
	// submitted with shards=N and no dist_workers of its own uses the first
	// N of these over HTTP. Empty means sharded runs execute on in-process
	// workers.
	DistWorkers []string
	// Logger receives structured lifecycle logs (run start/finish, cache
	// invalidations). Nil discards them.
	Logger *slog.Logger
}

// Server wires the registry, index cache, extraction cache, run manager,
// metrics and telemetry registry behind one http.Handler.
type Server struct {
	registry  *Registry
	cache     *IndexCache
	featCache *featcache.Cache
	manager   *Manager
	sessions  *SessionHub
	store     *DurableStore // nil without a state directory
	metrics   *Metrics
	obs       *obs.Registry
	// procTracer records process-level infrastructure spans no single run
	// owns: extraction-cache disk IO and demotion, run-journal appends,
	// and the startup recovery replay. Served at GET /spans.
	procTracer *otrace.Tracer
	// httpSeconds times every request the handler serves (SSE streams
	// included, observed at disconnect).
	httpSeconds *obs.Histogram
	mux         *http.ServeMux
	start       time.Time
}

// New assembles a server and starts its worker pool. It fails only when
// the extraction cache's disk store cannot be opened.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 64
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	registry := NewRegistry()
	cache := NewIndexCache(metrics)
	procTracer := otrace.New("process", otrace.DefaultCapacity)
	metrics.ObserveTracer(procTracer)
	// One extraction cache shared by every run the server executes — the
	// server is the long-lived process an engineering session talks to, so
	// cross-run reuse is the norm, not the exception.
	featCache, err := featcache.Open(featcache.Config{
		MaxBytes: int64(cfg.CacheMemMB) << 20,
		Dir:      cfg.CacheDir,
		Faults:   cfg.Faults,
		Tracer:   procTracer,
	}, featurepipe.ResultCodec{})
	if err != nil {
		return nil, err
	}
	registerFeatCacheMetrics(reg, featCache)
	// The durable store opens (and replays) before the manager and hub
	// exist, so their tables can be restored as part of construction.
	var store *DurableStore
	var recovered *persistState
	if cfg.StateDir != "" {
		if store, recovered, err = OpenDurableStore(cfg.StateDir, metrics, cfg.Faults, cfg.Logger, procTracer); err != nil {
			featCache.Close() //nolint:errcheck // already failing
			return nil, err
		}
		reg.GaugeFunc("journal_bytes", "Run journal size in bytes.",
			func() int64 { return store.JournalBytes() })
		reg.GaugeFunc("journal_records", "Run journal records.",
			func() int64 { return int64(store.JournalRecords()) })
		reg.GaugeFunc("journal_demoted", "1 when the durable run store has been demoted to memory-only after journal errors.",
			func() int64 {
				if store.Demoted() {
					return 1
				}
				return 0
			})
	}
	defaults := RunDefaults{
		Timeout:        cfg.RunTimeout,
		Faults:         cfg.Faults,
		MaxFailureFrac: cfg.MaxFailureFrac,
		DistWorkers:    cfg.DistWorkers,
	}
	manager := NewManager(registry, cache, featCache, metrics, store, cfg.Workers, cfg.QueueCap, defaults)
	s := &Server{
		registry:  registry,
		cache:     cache,
		featCache: featCache,
		manager:   manager,
		// The session hub executes on the manager's pool and shares its
		// corpus registry, index cache and extraction cache: a session's
		// whole point is reusing what earlier versions computed.
		sessions:   &SessionHub{m: manager, sessions: map[string]*Session{}},
		store:      store,
		metrics:    metrics,
		obs:        reg,
		procTracer: procTracer,
		httpSeconds: reg.Histogram("zombie_http_request_seconds",
			"HTTP request service time (streaming requests observe at disconnect).",
			obs.LatencyBuckets),
		mux:   http.NewServeMux(),
		start: time.Now(),
	}
	manager.log = cfg.Logger
	if recovered != nil {
		// History is visible immediately; interrupted work stays parked
		// until Recover re-queues it (the corpora it references are
		// registered by the embedder after New returns).
		s.manager.restore(recovered)
		s.sessions.restore(recovered)
	}
	// Gauges owned by other structures, sampled at exposition time.
	reg.GaugeFunc("queue_depth", "Runs and session versions queued but not yet picked up by a worker.",
		func() int64 { return int64(s.manager.QueueDepth()) })
	reg.GaugeFunc("runs_running", "Runs currently executing.",
		func() int64 { return int64(s.manager.Running()) })
	reg.GaugeFunc("corpora", "Registered corpora.",
		func() int64 { return int64(s.registry.Len()) })
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /corpora", s.handleCorpusAdd)
	s.mux.HandleFunc("GET /corpora", s.handleCorpusList)
	s.mux.HandleFunc("GET /corpora/{name}", s.handleCorpusGet)
	s.mux.HandleFunc("POST /runs", s.handleRunSubmit)
	s.mux.HandleFunc("GET /runs", s.handleRunList)
	s.mux.HandleFunc("GET /runs/{id}", s.handleRunGet)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleRunCancel)
	s.mux.HandleFunc("GET /runs/{id}/curve", s.handleRunCurve)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /runs/{id}/trace", s.handleRunTrace)
	s.mux.HandleFunc("GET /runs/{id}/spans", s.handleRunSpans)
	s.mux.HandleFunc("GET /spans", s.handleProcessSpans)
	s.mux.HandleFunc("POST /sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /sessions/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /sessions/{id}/runs", s.handleSessionRun)
	s.mux.HandleFunc("GET /sessions/{id}/spans", s.handleSessionSpans)
	s.mux.HandleFunc("DELETE /cache", s.handleCacheInvalidate)
	// The dist worker shares the server's corpus registry, extraction
	// cache, and telemetry registry: serving a coordinator's steps is just
	// another way of running the inner loop over this process's corpora.
	s.mux.Handle("/dist/", dist.NewHandler(dist.NewWorker(registry.Get, featCache, reg)))
	return s, nil
}

// Handler returns the routed handler, wrapped with request timing.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := obs.StartTimer(s.httpSeconds)
		// The mux's writer is passed through untouched so streaming
		// handlers keep their http.Flusher.
		s.mux.ServeHTTP(w, r)
		t.Stop()
	})
}

// Registry exposes the corpus registry so embedders (cmd/zombie-serve)
// can preregister corpora from flags.
func (s *Server) Registry() *Registry { return s.registry }

// Recover re-queues runs and session versions that the state directory
// shows were interrupted (queued or running) when the previous process
// died. They re-execute from scratch through the normal worker pool; the
// engine's determinism makes the recovered curves byte-identical to
// uninterrupted runs. Call it once after registering the corpora the
// restored state references — recovering earlier would fail every run
// with "unknown corpus". A server without a StateDir recovers nothing.
// Each re-queued run and version is logged ("run recovered").
func (s *Server) Recover() (runs, versions int) {
	return s.manager.recoverPending()
}

// Shutdown drains the manager's pool — runs and session versions alike
// (see Manager.Shutdown) — then closes any streamed corpora and the
// extraction cache (flushing its disk index). The HTTP listener should
// already be stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.manager.Shutdown(ctx)
	if cerr := s.registry.Close(); err == nil {
		err = cerr
	}
	if cerr := s.featCache.Close(); err == nil {
		err = cerr
	}
	// The store closes last, after the drained runs have journaled their
	// terminal records; the journal then holds everything the next
	// startup replays.
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- JSON plumbing ---

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

// writeSubmitError answers a refused submission: 503 when the server is
// overloaded or shutting down, 400 for a bad spec.
func writeSubmitError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrShuttingDown) {
		status = http.StatusServiceUnavailable
	}
	writeError(w, status, "%v", err)
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// --- health + metrics ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, commit := buildinfo.Resolve()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        version,
		"commit":         commit,
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
		"runs":           s.manager.stateCounts(),
	})
}

// handleMetrics serves the registry in the format the client asked for:
// the flat JSON map by default (the stable contract since PR 1 — existing
// keys never change name or meaning, new keys are only ever added), or
// the Prometheus text format via ?format=prom / ?format=json overrides or
// an Accept header naming text/plain.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	switch format := r.URL.Query().Get("format"); format {
	case "prom":
		s.writePromMetrics(w)
	case "json":
		writeJSON(w, http.StatusOK, s.obs.FlatSnapshot())
	case "":
		if acceptsPrometheus(r.Header.Get("Accept")) {
			s.writePromMetrics(w)
			return
		}
		writeJSON(w, http.StatusOK, s.obs.FlatSnapshot())
	default:
		writeError(w, http.StatusBadRequest, "unknown metrics format %q (want prom or json)", format)
	}
}

func (s *Server) writePromMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	w.WriteHeader(http.StatusOK)
	s.obs.WritePrometheus(w) //nolint:errcheck // client gone; nothing to do
}

// acceptsPrometheus reports whether the Accept header names the text
// exposition format. JSON stays the default: only an explicit text/plain
// (or the versioned Prometheus media type a scraper sends) flips formats,
// a bare */* does not.
func acceptsPrometheus(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if strings.TrimSpace(mediaType) == "text/plain" {
			return true
		}
	}
	return false
}

// handleCacheInvalidate drops every cached extraction, memory and disk —
// the escape hatch for the one situation the fingerprint cannot see:
// feature code whose behavior changed without any parameter changing
// (a code edit during development).
func (s *Server) handleCacheInvalidate(w http.ResponseWriter, r *http.Request) {
	if err := s.featCache.Invalidate(); err != nil {
		writeError(w, http.StatusInternalServerError, "cache invalidation failed: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "invalidated",
		"cache":  s.featCache.Stats(),
	})
}

// --- corpora ---

type corpusAddRequest struct {
	Name   string `json:"name"`
	Path   string `json:"path"`
	Stream bool   `json:"stream,omitempty"`
}

func (s *Server) handleCorpusAdd(w http.ResponseWriter, r *http.Request) {
	var req corpusAddRequest
	if !readJSON(w, r, &req) {
		return
	}
	info, err := s.registry.Add(req.Name, req.Path, req.Stream)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleCorpusList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.registry.List())
}

func (s *Server) handleCorpusGet(w http.ResponseWriter, r *http.Request) {
	info, ok := s.registry.Info(r.PathValue("name"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown corpus %q", r.PathValue("name"))
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// --- runs ---

func (s *Server) handleRunSubmit(w http.ResponseWriter, r *http.Request) {
	var spec RunSpec
	if !readJSON(w, r, &spec) {
		return
	}
	run, err := s.manager.Submit(spec)
	if err != nil {
		writeSubmitError(w, err)
		return
	}
	w.Header().Set("Location", "/runs/"+run.ID)
	writeJSON(w, http.StatusAccepted, run.Info())
}

func (s *Server) handleRunList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.manager.List())
}

func (s *Server) getRun(w http.ResponseWriter, r *http.Request) (*Run, bool) {
	run, ok := s.manager.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
	}
	return run, ok
}

func (s *Server) handleRunGet(w http.ResponseWriter, r *http.Request) {
	run, ok := s.getRun(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, run.Info())
}

func (s *Server) handleRunCancel(w http.ResponseWriter, r *http.Request) {
	run, ok := s.getRun(w, r)
	if !ok {
		return
	}
	info, err := s.manager.Cancel(run.ID)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// curvePointJSON is the wire form of one learning-curve sample.
type curvePointJSON struct {
	Inputs     int     `json:"inputs"`
	Quality    float64 `json:"quality"`
	SimSeconds float64 `json:"sim_seconds"`
}

func toCurveJSON(p core.CurvePoint) curvePointJSON {
	return curvePointJSON{Inputs: p.Inputs, Quality: p.Quality, SimSeconds: p.SimTime.Seconds()}
}

func (s *Server) handleRunCurve(w http.ResponseWriter, r *http.Request) {
	run, ok := s.getRun(w, r)
	if !ok {
		return
	}
	if follow, _ := strconv.ParseBool(r.URL.Query().Get("follow")); follow {
		s.streamCurve(w, r, run)
		return
	}
	points := run.Curve()
	out := make([]curvePointJSON, len(points))
	for i, p := range points {
		out[i] = toCurveJSON(p)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":    run.ID,
		"state": run.State(),
		"curve": out,
	})
}

// traceEventJSON is the wire form of one step event, used by both the
// trace-ring snapshot endpoint and the SSE "trace" frames.
type traceEventJSON struct {
	Step        int     `json:"step"`
	InputIdx    int     `json:"input"`
	Arm         int     `json:"arm"`
	Reward      float64 `json:"reward"`
	Produced    bool    `json:"produced"`
	Useful      bool    `json:"useful"`
	Err         string  `json:"err,omitempty"`
	SimMillis   float64 `json:"sim_ms"`
	CacheHit    bool    `json:"cache_hit"`
	Quarantined bool    `json:"quarantined"`
	// Dropped is the trace ring's eviction count as of this frame (SSE
	// frames only): non-zero means the ring wrapped and a late-joining
	// snapshot will not see the oldest steps.
	Dropped int64 `json:"dropped,omitempty"`
}

func toTraceJSON(e trace.Event) traceEventJSON {
	return traceEventJSON{
		Step: e.Step, InputIdx: e.InputIdx, Arm: e.Arm, Reward: e.Reward,
		Produced: e.Produced, Useful: e.Useful, Err: e.Err,
		SimMillis:   float64(e.SimTime) / float64(time.Millisecond),
		CacheHit:    e.CacheHit,
		Quarantined: e.Quarantined,
	}
}

// handleRunTrace serves a snapshot of the run's trace ring as JSON. It
// works mid-run — that is the point: the CSV /events endpoint needs the
// terminal result, the ring shows what a live run is doing right now.
func (s *Server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	run, ok := s.getRun(w, r)
	if !ok {
		return
	}
	events, dropped, traced := run.TraceSnapshot()
	if !traced {
		writeError(w, http.StatusNotFound, "run %s is not traced (submit with \"trace\": true)", run.ID)
		return
	}
	out := make([]traceEventJSON, len(events))
	for i, e := range events {
		out[i] = toTraceJSON(e)
	}
	info := run.Info()
	body := map[string]any{
		"id":      run.ID,
		"state":   info.State,
		"dropped": dropped,
		"events":  out,
	}
	if info.PhaseMillis != nil {
		body["phase_ms"] = info.PhaseMillis
	}
	writeJSON(w, http.StatusOK, body)
}

// streamCurve serves the run's live stream as Server-Sent Events: one
// "point" event per curve sample (history first, then live) and — for
// traced runs — one "trace" event per step, then a single "status" event
// carrying the terminal RunInfo, then EOF. A client that connects after
// completion gets the full point history and the status event immediately.
func (s *Server) streamCurve(w http.ResponseWriter, r *http.Request, run *Run) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	history, live, unsubscribe := run.Subscribe()
	defer unsubscribe()

	send := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}

	for _, p := range history {
		if !send("point", toCurveJSON(p)) {
			return
		}
	}
	if live != nil {
	follow:
		for {
			// The run's finish closes live after any buffered frames, and a
			// closed buffered channel drains before reporting !open, so no
			// separate Done case is needed.
			select {
			case msg, open := <-live:
				if !open {
					break follow
				}
				switch {
				case msg.point != nil:
					if !send("point", toCurveJSON(*msg.point)) {
						return
					}
				case msg.event != nil:
					frame := toTraceJSON(*msg.event)
					frame.Dropped = msg.dropped
					if !send("trace", frame) {
						return
					}
				}
			case <-r.Context().Done():
				return
			}
		}
	}
	send("status", run.Info())
}

func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	run, ok := s.getRun(w, r)
	if !ok {
		return
	}
	// Info before Result: a run finishing in between yields a result the
	// older info does not know about, never the reverse.
	info, res := run.Info(), run.Result()
	if res == nil {
		switch {
		case !info.State.terminal():
			writeError(w, http.StatusConflict, "run %s has no result yet (state %s)", run.ID, info.State)
		case info.Stop != "":
			// A digest without a result is a restored run: its summary and
			// curve survived the restart, but the step-level event log is
			// deliberately not journaled.
			writeError(w, http.StatusGone, "run %s predates this server process; its step trace was not persisted", run.ID)
		default:
			// Failed before the engine produced a result, or cancelled while
			// queued: there never was a trace.
			writeError(w, http.StatusNotFound, "run %s is %s without a result: %s", run.ID, info.State, info.Error)
		}
		return
	}
	events, dropped, traced := run.TraceSnapshot()
	if !traced {
		writeError(w, http.StatusNotFound, "run %s was not traced (submit with \"trace\": true)", run.ID)
		return
	}
	// The CSV is the ring's retained window, like /trace: a long run's
	// oldest steps are gone, and the header says how many.
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("X-Trace-Dropped", strconv.FormatInt(dropped, 10))
	trace.WriteCSV(w, events) //nolint:errcheck // client gone; nothing to do
}
