package server

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"zombie/internal/core"
	"zombie/internal/fault"
)

// newWorkerServer boots a full Server with the named corpus registered —
// the process a production deployment would run with `zombie-serve
// -corpus name=path` to act as a dist worker.
func newWorkerServer(t *testing.T, corpusName, path string) *httptest.Server {
	t.Helper()
	s, ts := newTestServer(t)
	if _, err := s.Registry().Add(corpusName, path, false); err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestDistributedRunMatchesSingleProcess is the server-level identity
// check: the same RunSpec executed single-process, sharded in-process,
// and sharded over HTTP against two real zombie-serve workers must
// produce identical curves and summaries.
func TestDistributedRunMatchesSingleProcess(t *testing.T) {
	path := writeImageCorpus(t, 200, 21)
	coord, _ := newTestServer(t)
	if _, err := coord.Registry().Add("imgs", path, false); err != nil {
		t.Fatal(err)
	}
	w1 := newWorkerServer(t, "imgs", path)
	w2 := newWorkerServer(t, "imgs", path)

	base := RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 60, EvalEvery: 20, Seed: 5}
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

	ref := submit(base)

	local := base
	local.Shards = 2
	lrun := submit(local)
	if info := lrun.Info(); info.Transport != "local" || len(info.Workers) != 2 {
		t.Fatalf("local dist info: transport=%q workers=%+v", info.Transport, info.Workers)
	}

	remote := base
	remote.DistWorkers = []string{w1.URL, w2.URL}
	hrun := submit(remote)
	if info := hrun.Info(); info.Transport != "http" || len(info.Workers) != 2 {
		t.Fatalf("http dist info: transport=%q workers=%+v", info.Transport, info.Workers)
	}

	want := ref.Curve()
	for name, run := range map[string]*Run{"local": lrun, "http": hrun} {
		if got := run.Curve(); !reflect.DeepEqual(want, got) {
			t.Fatalf("%s sharded curve diverged:\nwant %+v\ngot  %+v", name, want, got)
		}
		ri, wi := run.Info(), ref.Info()
		if ri.FinalQuality != wi.FinalQuality || ri.InputsProcessed != wi.InputsProcessed || ri.Stop != wi.Stop {
			t.Fatalf("%s summary diverged: %+v vs %+v", name, ri, wi)
		}
	}
}

// TestDefaultFaultsReachShards: the server's default fault plan is part of
// every run's engine config, so a sharded run's workers inject the same
// faults the single-process run does — equal curve, error count and
// quarantine list at shards 0 and 2.
func TestDefaultFaultsReachShards(t *testing.T) {
	inj, err := fault.Parse("extract:err=0.05", 3)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServerWith(t, Config{Workers: 2, QueueCap: 16, Faults: inj})
	if _, err := s.Registry().Add("imgs", writeImageCorpus(t, 600, 21), false); err != nil {
		t.Fatal(err)
	}
	runs := make([]*core.RunResult, 2)
	for i, shards := range []int{0, 2} {
		run := submitAndWait(t, s.manager, RunSpec{Corpus: "imgs", Task: "image",
			MaxInputs: 300, EvalEvery: 50, Seed: 5, Shards: shards})
		if st := run.State(); st != StateDone {
			t.Fatalf("shards=%d: run ended %s: %s", shards, st, run.Info().Error)
		}
		runs[i] = run.Result()
	}
	ref, sharded := runs[0], runs[1]
	if ref.Errors == 0 {
		t.Fatal("the default fault plan injected no extraction errors")
	}
	if !reflect.DeepEqual(ref.Curve, sharded.Curve) || ref.Errors != sharded.Errors ||
		!reflect.DeepEqual(ref.Quarantined, sharded.Quarantined) {
		t.Fatalf("shards=2 diverged from shards=0 under default faults:\nerrors %d vs %d\ncurve %+v\nvs    %+v\nquarantine %+v\nvs         %+v",
			ref.Errors, sharded.Errors, ref.Curve, sharded.Curve, ref.Quarantined, sharded.Quarantined)
	}
}

// TestDistSubmitValidation pins the sharding-specific submit guards.
func TestDistSubmitValidation(t *testing.T) {
	m, _ := newTestManager(t, "imgs", 100, 1, 4)
	cases := []RunSpec{
		{Corpus: "imgs", Task: "image", Shards: -1},
		{Corpus: "imgs", Task: "image", Mode: "scan-random", Shards: 2},
		{Corpus: "imgs", Task: "image", Mode: "oracle", DistWorkers: []string{"http://x"}},
		{Corpus: "imgs", Task: "image", Shards: 3, DistWorkers: []string{"http://x", "http://y"}},
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d (%+v): expected a submit error", i, spec)
		}
	}
}

// TestDistWorkerEndpointUnknownRun: a step batch against a run that was
// never initialized on this worker must surface the worker's own error
// message through the JSON error body — the contract the HTTP transport's
// message-verbatim behavior rests on.
func TestDistWorkerEndpointUnknownRun(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/dist/step-batch", map[string]any{"run_id": "ghost", "steps": []int{1}, "idxs": []int{0}})
	body := decodeBody[errorBody](t, resp, http.StatusInternalServerError)
	if body.Error != `dist: unknown run "ghost" on this worker (init first)` {
		t.Fatalf("error body %q", body.Error)
	}
}

// TestDistMountServesTheDistHandler: /dist/* is dist.NewHandler's, request
// hygiene included — an unknown field is a 400 naming it, and the
// single-step endpoint no longer exists.
func TestDistMountServesTheDistHandler(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/dist/finish", map[string]any{"run_id": "ghost", "step": 1})
	if body := decodeBody[errorBody](t, resp, http.StatusBadRequest); !strings.Contains(body.Error, `unknown field "step"`) {
		t.Fatalf("error body %q", body.Error)
	}
	resp = postJSON(t, ts.URL+"/dist/step", map[string]any{"run_id": "ghost", "step": 1, "idx": 0})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /dist/step: status %d, want 404", resp.StatusCode)
	}
}
