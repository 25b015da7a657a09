package server

import (
	"net/http"

	"zombie/internal/otrace"
)

// spanBody is the JSON envelope both span endpoints serve: the stitched
// span tree plus the cost-attribution summary built from it.
type spanBody struct {
	ID      string              `json:"id,omitempty"`
	State   RunState            `json:"state,omitempty"`
	TraceID string              `json:"trace_id"`
	Spans   int                 `json:"spans"`
	Dropped int64               `json:"dropped"`
	Tree    []*otrace.Node      `json:"tree"`
	Cost    *otrace.CostSummary `json:"cost"`
}

// writeSpans renders a tracer snapshot in the requested format: the JSON
// tree + cost envelope by default, Chrome trace-event JSON (loadable in
// about://tracing or Perfetto) via ?format=chrome.
func writeSpans(w http.ResponseWriter, r *http.Request, body spanBody, spans []otrace.Span) {
	switch format := r.URL.Query().Get("format"); format {
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		otrace.WriteChrome(w, spans) //nolint:errcheck // client gone; nothing to do
	case "", "json":
		body.Spans = len(spans)
		body.Tree = otrace.Tree(spans)
		body.Cost = otrace.BuildCost(spans, body.Dropped)
		writeJSON(w, http.StatusOK, body)
	default:
		writeError(w, http.StatusBadRequest, "unknown spans format %q (want json or chrome)", format)
	}
}

// handleRunSpans serves a run's span tree and cost attribution. It works
// mid-run — the snapshot shows the phases completed so far — and for a
// distributed run the tree includes the worker-side spans the coordinator
// stitched in over the wire.
func (s *Server) handleRunSpans(w http.ResponseWriter, r *http.Request) {
	run, ok := s.getRun(w, r)
	if !ok {
		return
	}
	spans, dropped, traced := run.SpanSnapshot()
	if !traced {
		writeError(w, http.StatusNotFound, "run %s has no span tracer (submit with \"spans\": true)", run.ID)
		return
	}
	writeSpans(w, r, spanBody{
		ID:      run.ID,
		State:   run.State(),
		TraceID: run.tracer.TraceID(),
		Dropped: dropped,
	}, spans)
}

// handleSessionSpans serves a recipe session's accumulated span tree:
// every version run in the workspace appends to one tracer, so the tree
// shows extraction cost shrinking version-over-version as the shared
// cache warms.
func (s *Server) handleSessionSpans(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	if sess.tracer == nil {
		writeError(w, http.StatusNotFound, "session %s has no span tracer (create with \"spans\": true)", sess.ID)
		return
	}
	spans, dropped := sess.tracer.Snapshot()
	writeSpans(w, r, spanBody{
		ID:      sess.ID,
		TraceID: sess.tracer.TraceID(),
		Dropped: dropped,
	}, spans)
}

// handleProcessSpans serves the server's process tracer: infrastructure
// spans owned by no single run (extraction-cache disk IO and demotion,
// run-journal appends, startup recovery).
func (s *Server) handleProcessSpans(w http.ResponseWriter, r *http.Request) {
	spans, dropped := s.procTracer.Snapshot()
	writeSpans(w, r, spanBody{
		TraceID: s.procTracer.TraceID(),
		Dropped: dropped,
	}, spans)
}
