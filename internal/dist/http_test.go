package dist

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/otrace"
)

// postRaw sends body to a worker endpoint, optionally with a traceparent
// header, and returns the status and raw response.
func postRaw(t *testing.T, url, body, traceparent string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set(otrace.Header, traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// newWorkerServer serves the production handler over a one-shard worker
// with run "r" initialized.
func newWorkerServer(t *testing.T) *httptest.Server {
	t.Helper()
	store, _, _ := testSetup(t, 40, 3)
	srv := httptest.NewServer(NewHandler(NewWorker(
		func(string) (corpus.Store, error) { return store, nil }, nil, nil)))
	t.Cleanup(srv.Close)
	if status, raw := postRaw(t, srv.URL+"/dist/init",
		`{"run_id":"r","task":"wiki","seed":3,"shards":1,"shard":0}`, ""); status != http.StatusOK {
		t.Fatalf("init: status %d: %s", status, raw)
	}
	return srv
}

// TestHandlerRejections drives the worker handler the way a confused or
// hostile coordinator would: every rejection is a clean status with the
// errorBody the client surfaces verbatim, and the single-step endpoint
// the protocol used to have is gone.
func TestHandlerRejections(t *testing.T) {
	srv := newWorkerServer(t)
	huge := `{"run_id":"r","steps":[1],"idxs":[` + strings.Repeat("0,", maxRequestBytes/2) + `0]}`
	for _, tc := range []struct {
		name, path, body string
		status           int
		errHas           string
	}{
		{"unknown field", "/dist/step-batch", `{"run_id":"r","steps":[1],"idxs":[0],"step":1}`,
			http.StatusBadRequest, `unknown field "step"`},
		{"malformed body", "/dist/holdout", `{"run_id":`, http.StatusBadRequest, "bad request body"},
		{"body over the cap", "/dist/step-batch", huge, http.StatusBadRequest, "request body too large"},
		{"steps/idxs mismatch", "/dist/step-batch", `{"run_id":"r","steps":[1,2],"idxs":[0]}`,
			http.StatusInternalServerError, "dist: step batch has 2 steps for 1 inputs"},
		{"unknown run", "/dist/step-batch", `{"run_id":"ghost","steps":[1],"idxs":[0]}`,
			http.StatusInternalServerError, `dist: unknown run "ghost" on this worker (init first)`},
	} {
		status, raw := postRaw(t, srv.URL+tc.path, tc.body, "")
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s: body is not an errorBody: %s", tc.name, raw)
		}
		if status != tc.status || !strings.Contains(e.Error, tc.errHas) {
			t.Fatalf("%s: status %d error %q, want %d with %q", tc.name, status, e.Error, tc.status, tc.errHas)
		}
	}
	if status, _ := postRaw(t, srv.URL+"/dist/step", `{"run_id":"r","step":1,"idx":0}`, ""); status != http.StatusNotFound {
		t.Fatalf("POST /dist/step: status %d, want 404", status)
	}
	resp, err := http.Get(srv.URL + "/dist/step-batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /dist/step-batch: status %d, want 405", resp.StatusCode)
	}
}

// TestHandlerTraceparentHeaderFallback: a coordinator that only speaks
// the W3C header (no wire field) still gets its worker spans back,
// parented at the span the header named.
func TestHandlerTraceparentHeaderFallback(t *testing.T) {
	srv := newWorkerServer(t)
	tr := otrace.New("t-header", 0)
	rpc := tr.Start(0, "dist.step_batch")
	status, raw := postRaw(t, srv.URL+"/dist/step-batch",
		`{"run_id":"r","steps":[1,2],"idxs":[0,1]}`, tr.Traceparent(rpc.ID()))
	if status != http.StatusOK {
		t.Fatalf("step-batch: status %d: %s", status, raw)
	}
	var resp StepBatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	if err := resp.DecodeResults(); err != nil || len(resp.Items) != 2 {
		t.Fatalf("step-batch response: %d items, decode error %v", len(resp.Items), err)
	}
	if len(resp.Spans) != 1 || resp.Spans[0].Name != "worker.step_batch" || resp.Spans[0].Parent != rpc.ID() {
		t.Fatalf("header-only traceparent returned spans %+v, want one worker.step_batch under %v", resp.Spans, rpc.ID())
	}
	// Stitched exactly like a wire-field request's spans.
	if n := tr.Import(resp.Spans, rpc.ID(), rpc.ID()); n != 1 {
		t.Fatalf("coordinator imported %d worker spans, want 1", n)
	}
}
