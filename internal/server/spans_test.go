package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// spanTreeJSON mirrors the /spans JSON envelope for decoding in tests.
type spanTreeJSON struct {
	ID      string          `json:"id"`
	TraceID string          `json:"trace_id"`
	Spans   int             `json:"spans"`
	Dropped int64           `json:"dropped"`
	Tree    []*spanNodeJSON `json:"tree"`
	Cost    struct {
		WallSeconds float64 `json:"wall_seconds"`
		Cells       []struct {
			Phase string `json:"phase"`
			Shard int    `json:"shard"`
			Part  string `json:"part"`
		} `json:"cells"`
	} `json:"cost"`
}

type spanNodeJSON struct {
	Name     string          `json:"name"`
	Children []*spanNodeJSON `json:"children,omitempty"`
}

// countNames walks the tree tallying span names.
func countNames(nodes []*spanNodeJSON, counts map[string]int) {
	for _, n := range nodes {
		counts[n.Name]++
		countNames(n.Children, counts)
	}
}

// TestRunSpansEndpoint drives a sharded run over two real HTTP workers
// with spans enabled and checks the full tracing surface: the spans
// endpoint serves a stitched tree with worker-side spans under the
// coordinator's rpc spans, the cost summary carries per-shard cells, the
// chrome format renders, the run info folds in the cost summary — and the
// curve is byte-identical to the same run without spans.
func TestRunSpansEndpoint(t *testing.T) {
	path := writeImageCorpus(t, 160, 9)
	coord, ts := newTestServer(t)
	if _, err := coord.Registry().Add("imgs", path, false); err != nil {
		t.Fatal(err)
	}
	w1 := newWorkerServer(t, "imgs", path)
	w2 := newWorkerServer(t, "imgs", path)

	base := RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 50, EvalEvery: 10,
		Seed: 3, Batch: 4, DistWorkers: []string{w1.URL, w2.URL}}
	submit := func(spec RunSpec) *Run {
		t.Helper()
		run, err := coord.manager.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-run.done
		if st := run.State(); st != StateDone {
			t.Fatalf("run %s ended %s: %s", run.ID, st, run.Info().Error)
		}
		return run
	}

	plain := submit(base)
	traced := base
	traced.Spans = true
	run := submit(traced)

	if want, got := plain.Curve(), run.Curve(); !reflect.DeepEqual(want, got) {
		t.Fatalf("spans on/off curve diverged:\nwant %+v\ngot  %+v", want, got)
	}

	// Untraced runs 404 on the spans endpoint.
	resp := mustGet(t, ts.URL+"/runs/"+plain.ID+"/spans")
	decodeBody[errorBody](t, resp, http.StatusNotFound)

	resp = mustGet(t, ts.URL+"/runs/"+run.ID+"/spans")
	body := decodeBody[spanTreeJSON](t, resp, http.StatusOK)
	if body.ID != run.ID || body.TraceID == "" || body.Spans == 0 || len(body.Tree) == 0 {
		t.Fatalf("spans body: %+v", body)
	}
	counts := map[string]int{}
	countNames(body.Tree, counts)
	if counts["run"] != 1 || counts["dist.step_batch"] == 0 || counts["worker.step_batch"] == 0 {
		t.Fatalf("stitched tree missing expected spans: %v", counts)
	}
	if counts["worker.holdout"] != 2 {
		t.Fatalf("want one worker.holdout per shard, got %v", counts)
	}
	shards := map[int]bool{}
	for _, c := range body.Cost.Cells {
		if c.Phase == "extract" && c.Shard >= 0 && c.Part == "" {
			shards[c.Shard] = true
		}
	}
	if len(shards) != 2 {
		t.Fatalf("cost cells cover shards %v, want both: %+v", shards, body.Cost.Cells)
	}

	info := run.Info()
	if info.Spans == 0 || info.Cost == nil || info.Cost.WallSeconds <= 0 {
		t.Fatalf("run info missing span summary: spans=%d cost=%+v", info.Spans, info.Cost)
	}

	chrome := mustGet(t, ts.URL+"/runs/"+run.ID+"/spans?format=chrome")
	defer chrome.Body.Close()
	raw, err := io.ReadAll(chrome.Body)
	if err != nil || chrome.StatusCode != http.StatusOK {
		t.Fatalf("chrome format: status %d err %v", chrome.StatusCode, err)
	}
	if !strings.Contains(string(raw), `"traceEvents"`) || !strings.Contains(string(raw), `"worker.step_batch"`) {
		t.Fatalf("chrome output missing expected content: %.200s", raw)
	}
}

// TestRunSpansSingleProcess pins the non-distributed path: a local run
// with spans on records the engine phase spans and stays byte-identical
// to the same run with spans off.
func TestRunSpansSingleProcess(t *testing.T) {
	m, _ := newTestManager(t, "imgs", 120, 1, 4)
	base := RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 40, EvalEvery: 10, Seed: 7}
	submit := func(spec RunSpec) *Run {
		t.Helper()
		run, err := m.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		<-run.done
		if st := run.State(); st != StateDone {
			t.Fatalf("run ended %s: %s", st, run.Info().Error)
		}
		return run
	}
	plain := submit(base)
	traced := base
	traced.Spans = true
	run := submit(traced)
	if want, got := plain.Curve(), run.Curve(); !reflect.DeepEqual(want, got) {
		t.Fatalf("spans on/off curve diverged")
	}
	spans, dropped, ok := run.SpanSnapshot()
	if !ok || dropped != 0 || len(spans) == 0 {
		t.Fatalf("span snapshot: ok=%v dropped=%d n=%d", ok, dropped, len(spans))
	}
	names := map[string]int{}
	for _, sp := range spans {
		names[sp.Name]++
	}
	for _, want := range []string{"run", "holdout", "batch", "eval"} {
		if names[want] == 0 {
			t.Fatalf("missing %q span in local run: %v", want, names)
		}
	}
	if _, _, ok := plain.SpanSnapshot(); ok {
		t.Fatal("untraced run reported a span snapshot")
	}
}

// TestProcessSpansEndpoint: the process tracer serves durability and
// cache infrastructure spans for a server with a state directory.
func TestProcessSpansEndpoint(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueCap: 4, StateDir: t.TempDir()})
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
	if _, err := s.Registry().Add("imgs", writeImageCorpus(t, 60, 4), false); err != nil {
		t.Fatal(err)
	}
	run, err := s.manager.Submit(RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 10})
	if err != nil {
		t.Fatal(err)
	}
	<-run.done

	resp := mustGet(t, ts.URL+"/spans")
	body := decodeBody[spanTreeJSON](t, resp, http.StatusOK)
	if body.TraceID == "" || body.Spans == 0 {
		t.Fatalf("process spans body: %+v", body)
	}
	counts := map[string]int{}
	countNames(body.Tree, counts)
	// Recovery ran at open (over an empty directory) and the journal saw
	// the run's submission/start/finish records.
	if counts["runstore.recover"] != 1 || counts["runstore.append"] == 0 {
		t.Fatalf("process spans missing durability records: %v", counts)
	}
}

// TestSessionSpansEndpoint: a session created with spans accumulates one
// tree across versions, with per-part extraction cost cells attributing
// what each version actually paid for.
func TestSessionSpansEndpoint(t *testing.T) {
	s, ts := newTestServer(t)
	if _, err := s.Registry().Add("imgs", writeImageCorpus(t, 100, 11), false); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/sessions", map[string]any{
		"corpus": "imgs", "task": "image", "max_inputs": 20, "spans": true,
	})
	sess := decodeBody[SessionInfo](t, resp, http.StatusCreated)
	sessURL := ts.URL + "/sessions/" + sess.ID

	for _, midVersion := range []int{2, 3} {
		decodeBody[map[string]any](t, postJSON(t, sessURL+"/runs", imageRecipeSpec(midVersion)), http.StatusAccepted)
	}
	info := pollSession(t, sessURL, 2)
	if info.Spans == 0 {
		t.Fatalf("session info reports no spans: %+v", info)
	}

	resp = mustGet(t, sessURL+"/spans")
	body := decodeBody[spanTreeJSON](t, resp, http.StatusOK)
	if body.ID != sess.ID || body.Spans == 0 {
		t.Fatalf("session spans body: %+v", body)
	}
	counts := map[string]int{}
	countNames(body.Tree, counts)
	if counts["run"] != 2 {
		t.Fatalf("want one run root per version, got %v", counts)
	}
	parts := 0
	for _, c := range body.Cost.Cells {
		if c.Part != "" {
			parts++
		}
	}
	if parts == 0 {
		t.Fatalf("session cost has no per-part cells: %+v", body.Cost.Cells)
	}
}
