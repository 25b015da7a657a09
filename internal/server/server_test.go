package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerWith(t, Config{Workers: 2, QueueCap: 16})
}

func newTestServerWith(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response, wantStatus int) T {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, wantStatus, raw)
	}
	var v T
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("bad JSON body: %v\n%s", err, raw)
	}
	return v
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// readSSE consumes the stream until EOF or until stop returns true for a
// parsed event.
func readSSE(t *testing.T, r io.Reader, stop func(sseEvent) bool) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" || cur.data != "" {
				events = append(events, cur)
				if stop != nil && stop(cur) {
					return events
				}
				cur = sseEvent{}
			}
		}
	}
	return events
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	health := decodeBody[map[string]any](t, mustGet(t, ts.URL+"/healthz"), http.StatusOK)
	if health["status"] != "ok" {
		t.Fatalf("healthz: %v", health)
	}
	metrics := decodeBody[map[string]int64](t, mustGet(t, ts.URL+"/metrics"), http.StatusOK)
	for _, key := range []string{"runs_started", "runs_completed", "runs_cancelled", "inputs_processed", "queue_depth", "index_builds"} {
		if _, ok := metrics[key]; !ok {
			t.Fatalf("metrics missing %q: %v", key, metrics)
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestCorpusEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 100, 7)

	info := decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)
	if info.Name != "imgs" || info.Inputs != 100 {
		t.Fatalf("corpus info: %+v", info)
	}
	// Duplicate name and bad path are 400s.
	decodeBody[errorBody](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusBadRequest)
	decodeBody[errorBody](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "x", Path: "/nope.jsonl"}), http.StatusBadRequest)

	list := decodeBody[[]CorpusInfo](t, mustGet(t, ts.URL+"/corpora"), http.StatusOK)
	if len(list) != 1 || list[0].Name != "imgs" {
		t.Fatalf("corpus list: %+v", list)
	}
	got := decodeBody[CorpusInfo](t, mustGet(t, ts.URL+"/corpora/imgs"), http.StatusOK)
	if got != info {
		t.Fatalf("corpus get: %+v vs %+v", got, info)
	}
	decodeBody[errorBody](t, mustGet(t, ts.URL+"/corpora/ghost"), http.StatusNotFound)
}

func TestRunEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 100, 8)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)

	decodeBody[errorBody](t, postJSON(t, ts.URL+"/runs", RunSpec{Corpus: "ghost", Task: "image"}), http.StatusBadRequest)
	decodeBody[errorBody](t, postJSON(t, ts.URL+"/runs", RunSpec{Corpus: "imgs", Task: "image", Policy: "bogus"}), http.StatusBadRequest)
	decodeBody[errorBody](t, postJSON(t, ts.URL+"/runs", RunSpec{Corpus: "imgs", Task: "image", Batch: -1}), http.StatusBadRequest)
	for _, spec := range []RunSpec{
		{Corpus: "imgs", Task: "image", Mode: "bogus"},
		{Corpus: "imgs", Task: "image", Mode: "oracle", Shards: 2},
	} {
		body := decodeBody[errorBody](t, postJSON(t, ts.URL+"/runs", spec), http.StatusBadRequest)
		if !strings.Contains(body.Error, spec.Mode) {
			t.Errorf("mode %q: error %q does not name it", spec.Mode, body.Error)
		}
	}
	decodeBody[errorBody](t, postJSON(t, ts.URL+"/runs", RunSpec{Corpus: "imgs", Task: "image", EvalEvery: -1}), http.StatusBadRequest)
	decodeBody[errorBody](t, mustGet(t, ts.URL+"/runs/r999"), http.StatusNotFound)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/r999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody[errorBody](t, resp, http.StatusNotFound)

	// Unknown fields in the body are rejected, not silently dropped.
	resp = postJSON(t, ts.URL+"/runs", map[string]any{"corpus": "imgs", "task": "image", "polcy": "typo"})
	decodeBody[errorBody](t, resp, http.StatusBadRequest)
}

// TestServeEndToEnd is the acceptance flow: register a corpus over HTTP,
// run a zombie run to completion while following its curve over SSE,
// fetch its trace, then cancel a long-running second run and observe the
// cancelled status with a partial curve.
func TestServeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)

	// Small corpus for the fast run, large one for the cancel target.
	small := writeImageCorpus(t, 600, 9)
	big := writeImageCorpus(t, 20000, 10)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "small", Path: small}), http.StatusCreated)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "big", Path: big, Stream: true}), http.StatusCreated)

	// Submit a bounded zombie run and follow its curve over SSE.
	spec := RunSpec{Corpus: "small", Task: "image", Mode: "zombie", K: 8, MaxInputs: 120, EvalEvery: 10, Trace: true}
	submitted := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", spec), http.StatusAccepted)
	if submitted.State != StateQueued && submitted.State != StateRunning {
		t.Fatalf("fresh run state = %s", submitted.State)
	}

	resp := mustGet(t, ts.URL+"/runs/"+submitted.ID+"/curve?follow=1")
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("follow content type = %q", ct)
	}
	events := readSSE(t, resp.Body, func(e sseEvent) bool { return e.name == "status" })
	resp.Body.Close()
	points := 0
	for _, e := range events {
		if e.name == "point" {
			points++
		}
	}
	if points < 2 {
		t.Fatalf("observed %d SSE curve events, want >= 2", points)
	}
	var status RunInfo
	if err := json.Unmarshal([]byte(events[len(events)-1].data), &status); err != nil {
		t.Fatal(err)
	}
	if status.State != StateDone || status.InputsProcessed != 120 {
		t.Fatalf("terminal status event: %+v", status)
	}

	// The JSON curve and CSV trace agree with the SSE view.
	curve := decodeBody[struct {
		State RunState         `json:"state"`
		Curve []curvePointJSON `json:"curve"`
	}](t, mustGet(t, ts.URL+"/runs/"+submitted.ID+"/curve"), http.StatusOK)
	if curve.State != StateDone || len(curve.Curve) != 13 { // 0,10,...,120
		t.Fatalf("curve: state=%s points=%d", curve.State, len(curve.Curve))
	}
	eventsResp := mustGet(t, ts.URL+"/runs/"+submitted.ID+"/events")
	csvBody, _ := io.ReadAll(eventsResp.Body)
	eventsResp.Body.Close()
	if eventsResp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d: %s", eventsResp.StatusCode, csvBody)
	}
	if rows := strings.Count(strings.TrimSpace(string(csvBody)), "\n"); rows != 120 {
		t.Fatalf("trace CSV has %d data rows, want 120", rows)
	}

	// Submit the long run over the streamed corpus, wait for its first SSE
	// point (it is definitely executing), then cancel it.
	long := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", longSpec("big")), http.StatusAccepted)
	follow := mustGet(t, ts.URL+"/runs/"+long.ID+"/curve?follow=1")
	readSSE(t, follow.Body, func(e sseEvent) bool { return e.name == "point" })

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+long.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody[RunInfo](t, delResp, http.StatusOK)

	// The follow stream ends with a cancelled status event.
	tail := readSSE(t, follow.Body, func(e sseEvent) bool { return e.name == "status" })
	follow.Body.Close()
	if len(tail) == 0 {
		t.Fatal("follow stream ended without a status event")
	}
	var cancelled RunInfo
	if err := json.Unmarshal([]byte(tail[len(tail)-1].data), &cancelled); err != nil {
		t.Fatal(err)
	}
	if cancelled.State != StateCancelled || cancelled.Stop != "cancelled" {
		t.Fatalf("cancelled status: %+v", cancelled)
	}
	if cancelled.CurvePoints < 1 || cancelled.InputsProcessed >= 18000 {
		t.Fatalf("cancelled run should carry a partial curve: %+v", cancelled)
	}

	// Run listing and metrics reflect both runs.
	runs := decodeBody[[]RunInfo](t, mustGet(t, ts.URL+"/runs"), http.StatusOK)
	if len(runs) != 2 || runs[0].ID != submitted.ID || runs[1].ID != long.ID {
		t.Fatalf("run list: %+v", runs)
	}
	metrics := decodeBody[map[string]int64](t, mustGet(t, ts.URL+"/metrics"), http.StatusOK)
	if metrics["runs_started"] != 2 || metrics["runs_completed"] != 1 || metrics["runs_cancelled"] != 1 {
		t.Fatalf("metrics after e2e: %v", metrics)
	}
	if metrics["inputs_processed"] < 120 || metrics["index_builds"] != 1 {
		t.Fatalf("metrics after e2e: %v", metrics)
	}
}

// TestIndexSharedAcrossConcurrentRuns submits identical zombie runs in
// parallel and checks the singleflight cache built the index exactly once.
func TestIndexSharedAcrossConcurrentRuns(t *testing.T) {
	s, ts := newTestServer(t)
	path := writeImageCorpus(t, 800, 11)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)

	spec := RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", K: 8, MaxInputs: 40, EvalEvery: 20}
	var ids []string
	for i := 0; i < 3; i++ {
		info := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", spec), http.StatusAccepted)
		ids = append(ids, info.ID)
	}
	for _, id := range ids {
		run, ok := s.manager.Get(id)
		if !ok {
			t.Fatalf("run %s missing", id)
		}
		<-run.done
		if st := run.State(); st != StateDone {
			t.Fatalf("run %s state = %s (%s)", id, st, run.Info().Error)
		}
	}
	metrics := decodeBody[map[string]int64](t, mustGet(t, ts.URL+"/metrics"), http.StatusOK)
	if metrics["index_builds"] != 1 {
		t.Fatalf("index built %d times for identical runs, want 1", metrics["index_builds"])
	}
	if metrics["index_cache_hits"] != 2 {
		t.Fatalf("index_cache_hits = %d, want 2", metrics["index_cache_hits"])
	}

	// Identical seeds mean identical results: the shared index is not
	// mutated by concurrent runs.
	var q []float64
	for _, id := range ids {
		run, _ := s.manager.Get(id)
		q = append(q, run.Result().FinalQuality)
	}
	if q[0] != q[1] || q[1] != q[2] {
		t.Fatalf("identical runs diverged: %v", q)
	}
}

// TestSSEAfterCompletion: a follower that connects after the run finished
// still gets the full history and the terminal status immediately.
func TestSSEAfterCompletion(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 400, 12)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)
	info := decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs",
		RunSpec{Corpus: "imgs", Task: "image", Mode: "scan-sequential", MaxInputs: 30, EvalEvery: 10}), http.StatusAccepted)

	deadline := time.Now().Add(20 * time.Second)
	for {
		cur := decodeBody[RunInfo](t, mustGet(t, ts.URL+"/runs/"+info.ID), http.StatusOK)
		if cur.State == StateDone {
			break
		}
		if cur.State.terminal() {
			t.Fatalf("run ended %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("run did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp := mustGet(t, ts.URL+"/runs/"+info.ID+"/curve?follow=1")
	events := readSSE(t, resp.Body, nil) // reads to EOF
	resp.Body.Close()
	points := 0
	var last sseEvent
	for _, e := range events {
		if e.name == "point" {
			points++
		}
		last = e
	}
	if points != 4 { // 0,10,20,30
		t.Fatalf("late follower saw %d points, want 4", points)
	}
	if last.name != "status" {
		t.Fatalf("stream must end with status, got %q", last.name)
	}
	if !strings.Contains(last.data, fmt.Sprintf("%q", StateDone)) {
		t.Fatalf("status data: %s", last.data)
	}
}

// TestExtractionCacheSharedAcrossRuns: the second identical run is served
// from the extraction cache populated by the first, the traffic shows up
// in RunInfo and /metrics, results stay identical, and DELETE /cache
// empties the cache.
func TestExtractionCacheSharedAcrossRuns(t *testing.T) {
	s, ts := newTestServer(t)
	path := writeImageCorpus(t, 500, 13)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)

	spec := RunSpec{Corpus: "imgs", Task: "image", Mode: "scan-sequential", MaxInputs: 80, EvalEvery: 40}
	await := func(id string) RunInfo {
		run, ok := s.manager.Get(id)
		if !ok {
			t.Fatalf("run %s missing", id)
		}
		<-run.done
		if st := run.State(); st != StateDone {
			t.Fatalf("run %s state = %s (%s)", id, st, run.Info().Error)
		}
		return run.Info()
	}
	cold := await(decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", spec), http.StatusAccepted).ID)
	warm := await(decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", spec), http.StatusAccepted).ID)

	if cold.CacheHits != 0 || cold.CacheMisses == 0 {
		t.Fatalf("cold run traffic: hits=%d misses=%d", cold.CacheHits, cold.CacheMisses)
	}
	if warm.CacheHits == 0 || warm.CacheMisses != 0 {
		t.Fatalf("warm run traffic: hits=%d misses=%d", warm.CacheHits, warm.CacheMisses)
	}
	if cold.FinalQuality != warm.FinalQuality || cold.InputsProcessed != warm.InputsProcessed {
		t.Fatalf("cached replay diverged: %+v vs %+v", cold, warm)
	}

	metrics := decodeBody[map[string]int64](t, mustGet(t, ts.URL+"/metrics"), http.StatusOK)
	if metrics["feat_cache_hits"] == 0 || metrics["feat_cache_misses"] == 0 ||
		metrics["feat_cache_entries"] == 0 || metrics["feat_cache_bytes"] == 0 {
		t.Fatalf("metrics missing cache traffic: %v", metrics)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/cache", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	decodeBody[map[string]any](t, resp, http.StatusOK)
	metrics = decodeBody[map[string]int64](t, mustGet(t, ts.URL+"/metrics"), http.StatusOK)
	if metrics["feat_cache_entries"] != 0 || metrics["feat_cache_bytes"] != 0 {
		t.Fatalf("cache not emptied: %v", metrics)
	}
}
