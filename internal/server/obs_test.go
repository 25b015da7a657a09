package server

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"zombie/internal/trace"
)

// waitDone follows the run's SSE stream until its terminal status event —
// the cheapest "wait for completion" primitive the HTTP API offers.
func waitDone(t *testing.T, baseURL, id string) {
	t.Helper()
	resp := mustGet(t, baseURL+"/runs/"+id+"/curve?follow=1")
	defer resp.Body.Close()
	readSSE(t, resp.Body, func(e sseEvent) bool { return e.name == "status" })
}

// TestMetricsGoldenKeys is the exposition contract: every metric the
// registry knows appears in BOTH /metrics formats, and every key the flat
// JSON map has carried since PR 1 is still present.
func TestMetricsGoldenKeys(t *testing.T) {
	s, ts := newTestServer(t)
	path := writeImageCorpus(t, 600, 21)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)
	run := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs",
		RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 60, EvalEvery: 20, Trace: true, Spans: true}), http.StatusAccepted)
	waitDone(t, ts.URL, run.ID)

	flat := decodeBody[map[string]int64](t, mustGet(t, ts.URL+"/metrics"), http.StatusOK)
	promResp := mustGet(t, ts.URL+"/metrics?format=prom")
	promBody, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil || promResp.StatusCode != http.StatusOK {
		t.Fatalf("prom scrape: status %d err %v", promResp.StatusCode, err)
	}
	prom := string(promBody)

	names := s.obs.Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, name := range names {
		inFlat := false
		for key := range flat {
			if key == name || strings.HasPrefix(key, name+"_") {
				inFlat = true
				break
			}
		}
		if !inFlat {
			t.Errorf("metric %q missing from the flat JSON exposition", name)
		}
		if !strings.Contains(prom, "# TYPE "+name+" ") {
			t.Errorf("metric %q missing from the Prometheus exposition", name)
		}
	}

	// The stability contract: these keys predate the registry and must
	// never disappear or change meaning.
	for _, key := range []string{
		"feat_cache_hits", "feat_cache_misses", "feat_cache_disk_hits",
		"feat_cache_evictions", "feat_cache_entries", "feat_cache_bytes",
		"feat_cache_disk_entries", "feat_cache_disk_bytes",
		"feat_cache_disk_errors", "feat_cache_disk_demoted",
		"runs_started", "runs_completed", "runs_failed", "runs_cancelled",
		"runs_timed_out", "inputs_processed", "inputs_quarantined",
		"run_wall_ms", "run_seconds", "index_builds", "index_cache_hits",
		"index_build_retries", "queue_depth", "runs_running", "corpora",
		"spans_recorded", "spans_dropped",
	} {
		if _, ok := flat[key]; !ok {
			t.Errorf("pre-existing flat key %q missing", key)
		}
	}

	// A run executed, so the engine's phase histograms and the HTTP
	// histogram are populated in both formats.
	if flat["zombie_phase_seconds_extract_count"] <= 0 {
		t.Error("extract phase histogram empty after a run")
	}
	if flat["zombie_http_request_seconds_count"] <= 0 {
		t.Error("HTTP request histogram empty after requests")
	}
	if !strings.Contains(prom, `zombie_phase_seconds_bucket{phase="extract",le="+Inf"}`) {
		t.Error("prom exposition lacks the extract phase series")
	}
	if flat["runs_completed"] != 1 || flat["inputs_processed"] != 60 {
		t.Errorf("run counters: completed=%d inputs=%d", flat["runs_completed"], flat["inputs_processed"])
	}
	// The run above asked for spans, so the span counters moved: spans
	// were recorded and none dropped (the run is far under capacity).
	if flat["spans_recorded"] <= 0 || flat["spans_dropped"] != 0 {
		t.Errorf("span counters: recorded=%d dropped=%d", flat["spans_recorded"], flat["spans_dropped"])
	}
}

func TestMetricsFormatNegotiation(t *testing.T) {
	_, ts := newTestServer(t)

	resp := mustGet(t, ts.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type = %q", ct)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4, */*;q=0.1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Accept text/plain content type = %q", ct)
	}
	if !strings.Contains(string(body), "# TYPE runs_started counter") {
		t.Fatalf("prom body missing TYPE header:\n%s", body)
	}

	// A bare */* (or no Accept at all) keeps the JSON default.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "*/*")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("*/* content type = %q", ct)
	}

	// ?format=json wins over an Accept header; unknown formats are 400s.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/metrics?format=json", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody[map[string]int64](t, resp, http.StatusOK)
	decodeBody[errorBody](t, mustGet(t, ts.URL+"/metrics?format=xml"), http.StatusBadRequest)
}

// traceSnapshot mirrors handleRunTrace's response body.
type traceSnapshot struct {
	ID          string             `json:"id"`
	State       RunState           `json:"state"`
	Dropped     int64              `json:"dropped"`
	Events      []traceEventJSON   `json:"events"`
	PhaseMillis map[string]float64 `json:"phase_ms"`
}

func TestRunTraceStreamAndSnapshot(t *testing.T) {
	_, ts := newTestServer(t)
	big := writeImageCorpus(t, 20000, 22)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "big", Path: big, Stream: true}), http.StatusCreated)

	spec := longSpec("big")
	spec.Trace = true
	run := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", spec), http.StatusAccepted)

	// Follow the stream until the first live trace frame: the run is
	// definitely executing and its ring is non-empty.
	follow := mustGet(t, ts.URL+"/runs/"+run.ID+"/curve?follow=1")
	frames := readSSE(t, follow.Body, func(e sseEvent) bool { return e.name == "trace" })
	var ev traceEventJSON
	if err := json.Unmarshal([]byte(frames[len(frames)-1].data), &ev); err != nil {
		t.Fatalf("trace frame does not parse: %v", err)
	}
	if ev.Step < 1 {
		t.Fatalf("trace frame: %+v", ev)
	}

	// The ring snapshot works mid-run — that is its reason to exist.
	snap := decodeBody[traceSnapshot](t, mustGet(t, ts.URL+"/runs/"+run.ID+"/trace"), http.StatusOK)
	if snap.ID != run.ID || len(snap.Events) < 1 {
		t.Fatalf("live trace snapshot: %+v", snap)
	}
	if snap.PhaseMillis != nil {
		t.Fatalf("phase_ms present before the run is terminal: %+v", snap.PhaseMillis)
	}

	// Cancel, drain the stream, and check the terminal snapshot carries
	// the phase breakdown.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+run.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody[RunInfo](t, delResp, http.StatusOK)
	readSSE(t, follow.Body, func(e sseEvent) bool { return e.name == "status" })
	follow.Body.Close()

	final := decodeBody[traceSnapshot](t, mustGet(t, ts.URL+"/runs/"+run.ID+"/trace"), http.StatusOK)
	if len(final.Events) < len(snap.Events) {
		t.Fatalf("terminal snapshot shrank: %d -> %d events", len(snap.Events), len(final.Events))
	}
	if final.PhaseMillis["extract"] <= 0 || final.PhaseMillis["eval"] <= 0 {
		t.Fatalf("terminal phase_ms: %+v", final.PhaseMillis)
	}

	// Run info carries the same observability fields.
	info := decodeBody[RunInfo](t, mustGet(t, ts.URL+"/runs/"+run.ID), http.StatusOK)
	if info.TraceEvents < 1 || info.PhaseMillis["extract"] <= 0 {
		t.Fatalf("run info observability fields: %+v", info)
	}

	// Untraced runs have no ring: /trace is a 404, pointing at the flag.
	small := writeImageCorpus(t, 300, 23)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "small", Path: small}), http.StatusCreated)
	plain := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs",
		RunSpec{Corpus: "small", Task: "image", MaxInputs: 20}), http.StatusAccepted)
	waitDone(t, ts.URL, plain.ID)
	decodeBody[errorBody](t, mustGet(t, ts.URL+"/runs/"+plain.ID+"/trace"), http.StatusNotFound)
}

// TestTraceFramesReportRingDrops drives a traced run's fan-out path past
// the ring capacity and asserts the streamed trace frames carry the exact
// eviction count — a follower must learn the ring wrapped without polling
// the snapshot endpoint.
func TestTraceFramesReportRingDrops(t *testing.T) {
	run := newRun(runRecord{ID: "t-drops", Spec: RunSpec{Trace: true}, State: StateQueued})
	const over = 3
	for i := 0; i < traceRingCap+over; i++ {
		run.appendEvent(trace.Event{Step: i + 1})
	}
	_, ch, unsubscribe := run.Subscribe()
	defer unsubscribe()
	run.appendEvent(trace.Event{Step: traceRingCap + over + 1})
	msg := <-ch
	if msg.event == nil {
		t.Fatalf("frame is not a trace event: %+v", msg)
	}
	if msg.dropped != over+1 {
		t.Fatalf("frame dropped = %d, want %d", msg.dropped, over+1)
	}
	if _, dropped, _ := run.TraceSnapshot(); dropped != over+1 {
		t.Fatalf("snapshot dropped = %d, want %d", dropped, over+1)
	}
}

// TestEventsCSVReportsRingDrops runs a traced run past the ring capacity:
// the events CSV serves the ring's retained window — traceRingCap rows
// from the first step the ring kept — and its X-Trace-Dropped header
// carries the count of older steps it no longer holds.
func TestEventsCSVReportsRingDrops(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 6000, 24)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)
	const over = 3
	run := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", RunSpec{Corpus: "imgs", Task: "image",
		Mode: "scan-sequential", MaxInputs: traceRingCap + over, EvalEvery: 1000, Trace: true}), http.StatusAccepted)
	waitDone(t, ts.URL, run.ID)

	resp := mustGet(t, ts.URL+"/runs/"+run.ID+"/events")
	rows, err := csv.NewReader(resp.Body).ReadAll()
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d, %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get("X-Trace-Dropped"); got != strconv.Itoa(over) {
		t.Fatalf("X-Trace-Dropped = %q, want %d", got, over)
	}
	if len(rows) != 1+traceRingCap {
		t.Fatalf("CSV has %d data rows, want %d", len(rows)-1, traceRingCap)
	}
	if first, last := rows[1][0], rows[len(rows)-1][0]; first != strconv.Itoa(over+1) || last != strconv.Itoa(traceRingCap+over) {
		t.Fatalf("CSV steps %s..%s, want %d..%d", first, last, over+1, traceRingCap+over)
	}
}

func TestHealthzReportsBuildInfo(t *testing.T) {
	_, ts := newTestServer(t)
	health := decodeBody[map[string]any](t, mustGet(t, ts.URL+"/healthz"), http.StatusOK)
	version, _ := health["version"].(string)
	commit, _ := health["commit"].(string)
	if version == "" || commit == "" {
		t.Fatalf("healthz build info: version=%q commit=%q", version, commit)
	}
}
