package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/fault"
	"zombie/internal/recipe"
	"zombie/internal/rng"
)

// pollSession fetches the session until version (1-based) reaches a
// terminal state, failing the test if it ends anything but done.
func pollSession(t *testing.T, url string, version int) SessionInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info := decodeBody[SessionInfo](t, mustGet(t, url), http.StatusOK)
		if len(info.Versions) >= version {
			v := info.Versions[version-1]
			switch v.State {
			case StateDone:
				return info
			case StateFailed, StateCancelled:
				t.Fatalf("session version %d ended %s: %s", version, v.State, v.Error)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("session version %d did not finish", version)
	return SessionInfo{}
}

func imageRecipeSpec(midVersion int) map[string]any {
	return map[string]any{
		"name": "rec",
		"parts": []map[string]any{
			{"name": "base", "kind": "image", "version": 1},
			{"name": "mid", "kind": "image", "version": midVersion, "deps": []string{"base"}},
		},
	}
}

// TestSessionEndToEnd is the workspace acceptance flow over HTTP: create
// a session, run recipe v1, edit one part, run v2, and observe the
// part-level cache reuse and bandit warm start in the session view.
func TestSessionEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 500, 21)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)

	spec := SessionSpec{Name: "ws", Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 120, EvalEvery: 25}
	created := decodeBody[SessionInfo](t, postJSON(t, ts.URL+"/sessions", spec), http.StatusCreated)
	if created.ID == "" || created.Name != "ws" || created.Decay != defaultSessionDecay {
		t.Fatalf("created session: %+v", created)
	}
	list := decodeBody[[]SessionInfo](t, mustGet(t, ts.URL+"/sessions"), http.StatusOK)
	if len(list) != 1 || list[0].ID != created.ID {
		t.Fatalf("session list: %+v", list)
	}
	sessURL := ts.URL + "/sessions/" + created.ID

	// Version 1: cold run of the two-part recipe.
	sub := decodeBody[map[string]any](t, postJSON(t, sessURL+"/runs", imageRecipeSpec(2)), http.StatusAccepted)
	if sub["version"] != float64(1) || sub["state"] != string(StateQueued) {
		t.Fatalf("submit v1: %v", sub)
	}
	info := pollSession(t, sessURL, 1)
	v1 := info.Versions[0]
	if v1.WarmStart.Applied || v1.WarmStart.SeededPulls != 0 {
		t.Fatalf("v1 warm start: %+v", v1.WarmStart)
	}
	if v1.CacheMisses == 0 {
		t.Fatalf("cold v1 cache traffic: hits=%d misses=%d", v1.CacheHits, v1.CacheMisses)
	}
	if len(v1.Parts) != 2 || v1.Parts[0].Fingerprint == "" {
		t.Fatalf("v1 parts: %+v", v1.Parts)
	}
	if len(v1.Curve) == 0 || v1.Inputs != 120 || v1.Stop != "budget" {
		t.Fatalf("v1 run summary: %+v", v1)
	}

	// Version 2: edit one part. The unchanged part replays from the cache
	// and the bandit warm-starts from v1's arm statistics.
	decodeBody[map[string]any](t, postJSON(t, sessURL+"/runs", imageRecipeSpec(3)), http.StatusAccepted)
	info = pollSession(t, sessURL, 2)
	v2 := info.Versions[1]
	if !v2.WarmStart.Applied || v2.WarmStart.SeededPulls == 0 || v2.WarmStart.Decay != defaultSessionDecay {
		t.Fatalf("v2 warm start: %+v", v2.WarmStart)
	}
	if v2.CacheHits == 0 {
		t.Fatalf("v2 saw no cache hits despite one unchanged part: %+v", v2)
	}
	if v2.Diff == nil || !reflect.DeepEqual(v2.Diff.Changed, []string{"mid"}) {
		t.Fatalf("v2 diff: %+v", v2.Diff)
	}
	if v2.SharedParts != 1 || v2.TotalParts != 2 {
		t.Fatalf("v2 shared parts %d/%d, want 1/2", v2.SharedParts, v2.TotalParts)
	}
	if v2.Fingerprint == v1.Fingerprint {
		t.Fatal("edited recipe kept the same fingerprint")
	}
}

// TestSessionZeroDecayRunsCold pins the wire-level decay contract: an
// explicit decay of 0 disables warm-starting even with prior versions.
func TestSessionZeroDecayRunsCold(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 400, 22)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)

	zero := 0.0
	spec := SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 60, EvalEvery: 20, Decay: &zero}
	created := decodeBody[SessionInfo](t, postJSON(t, ts.URL+"/sessions", spec), http.StatusCreated)
	if created.Decay != 0 {
		t.Fatalf("decay = %v, want explicit 0", created.Decay)
	}
	sessURL := ts.URL + "/sessions/" + created.ID
	decodeBody[map[string]any](t, postJSON(t, sessURL+"/runs", imageRecipeSpec(2)), http.StatusAccepted)
	pollSession(t, sessURL, 1)
	decodeBody[map[string]any](t, postJSON(t, sessURL+"/runs", imageRecipeSpec(3)), http.StatusAccepted)
	info := pollSession(t, sessURL, 2)
	if ws := info.Versions[1].WarmStart; ws.Applied || ws.SeededPulls != 0 {
		t.Fatalf("decay=0 v2 warm start: %+v", ws)
	}
}

func TestSessionEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 200, 23)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)

	// Bad session specs are 400s with a reason.
	bad := 1.5
	cases := []SessionSpec{
		{Corpus: "ghost", Task: "image"},
		{Corpus: "imgs", Task: "video"},
		{Corpus: "imgs", Task: "image", K: -1},
		{Corpus: "imgs", Task: "image", Decay: &bad},
		{Corpus: "imgs", Task: "image", Policy: "bogus"},
		{Corpus: "imgs", Task: "image", Batch: -1},
		{Corpus: "imgs", Task: "image", EvalEvery: -1},
	}
	for i, spec := range cases {
		body := decodeBody[errorBody](t, postJSON(t, ts.URL+"/sessions", spec), http.StatusBadRequest)
		if body.Error == "" {
			t.Fatalf("case %d: empty error body", i)
		}
	}

	// Unknown sessions are 404s for both GET and run submission.
	decodeBody[errorBody](t, mustGet(t, ts.URL+"/sessions/s999"), http.StatusNotFound)
	decodeBody[errorBody](t, postJSON(t, ts.URL+"/sessions/s999/runs", imageRecipeSpec(2)), http.StatusNotFound)

	// An invalid recipe (cycle) is rejected at submission time.
	created := decodeBody[SessionInfo](t, postJSON(t, ts.URL+"/sessions",
		SessionSpec{Corpus: "imgs", Task: "image", K: 8, MaxInputs: 40, EvalEvery: 20}), http.StatusCreated)
	cyclic := map[string]any{"name": "rec", "parts": []map[string]any{
		{"name": "a", "kind": "image", "deps": []string{"b"}},
		{"name": "b", "kind": "image", "version": 2, "deps": []string{"a"}},
	}}
	body := decodeBody[errorBody](t, postJSON(t, ts.URL+"/sessions/"+created.ID+"/runs", cyclic), http.StatusBadRequest)
	if body.Error == "" {
		t.Fatal("cycle rejection carried no reason")
	}
	// So is a recipe whose label space is not the session task's.
	songs := map[string]any{"name": "bad", "parts": []map[string]any{{"name": "a", "kind": "song"}}}
	body = decodeBody[errorBody](t, postJSON(t, ts.URL+"/sessions/"+created.ID+"/runs", songs), http.StatusBadRequest)
	if !strings.Contains(body.Error, "has 10 classes, task image expects 2") {
		t.Fatalf("class-mismatch rejection = %q", body.Error)
	}
	if n := len(decodeBody[SessionInfo](t, mustGet(t, ts.URL+"/sessions/"+created.ID), http.StatusOK).Versions); n != 0 {
		t.Fatalf("rejected recipes left %d versions", n)
	}
}

// TestStrictSpecDecoding pins the request-body contract on every POST
// endpoint: a fully-populated spec with only known fields is accepted,
// and any unknown field — typo or stale client — is a 400 naming the
// problem instead of a silent drop.
func TestStrictSpecDecoding(t *testing.T) {
	_, ts := newTestServer(t)
	path := writeImageCorpus(t, 300, 24)
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "imgs", Path: path}), http.StatusCreated)

	// Every documented RunSpec field decodes.
	full := map[string]any{
		"corpus": "imgs", "task": "image", "mode": "zombie",
		"policy": "ucb1:1.0", "k": 8, "seed": 5, "feature_version": 2,
		"max_inputs": 30, "eval_every": 10, "early_stop": false,
		"batch": 1, "trace": true, "timeout_ms": 60000,
		"max_failures": 0.5, "faults": "", "fault_seed": 7,
		"shards": 2, "dist_workers": []string{},
	}
	decodeBody[RunInfo](t, postJSON(t, ts.URL+"/runs", full), http.StatusAccepted)

	// Every documented SessionSpec field decodes.
	fullSession := map[string]any{
		"name": "ws", "corpus": "imgs", "task": "image",
		"policy": "ucb1:1.0", "k": 8, "seed": 5, "decay": 0.25,
		"max_inputs": 30, "eval_every": 10, "early_stop": false, "batch": 1,
	}
	created := decodeBody[SessionInfo](t, postJSON(t, ts.URL+"/sessions", fullSession), http.StatusCreated)

	// Unknown fields are 400s that say what went wrong, everywhere.
	badBodies := []struct {
		url  string
		body map[string]any
	}{
		{ts.URL + "/runs", map[string]any{"corpus": "imgs", "task": "image", "polcy": "typo"}},
		{ts.URL + "/sessions", map[string]any{"corpus": "imgs", "task": "image", "decae": 0.5}},
		{ts.URL + "/sessions/" + created.ID + "/runs", map[string]any{
			"name": "rec", "parts": []map[string]any{{"name": "a", "kind": "image", "verison": 2}},
		}},
		{ts.URL + "/corpora", map[string]any{"name": "x", "path": path, "strem": true}},
	}
	for _, c := range badBodies {
		body := decodeBody[errorBody](t, postJSON(t, c.url, c.body), http.StatusBadRequest)
		if body.Error == "" {
			t.Fatalf("%s: unknown-field rejection carried no reason", c.url)
		}
	}

	// Malformed bodies are also 400s, not decode surprises.
	resp, err := http.Post(ts.URL+"/sessions", "application/json", strings.NewReader(`{"corpus": `))
	if err != nil {
		t.Fatal(err)
	}
	decodeBody[errorBody](t, resp, http.StatusBadRequest)
}

// TestSessionWikiRecipeEndToEnd runs the three-part wiki recipe over HTTP
// and edits only its top part: version 2 replays the two unchanged parts
// from the extraction cache and warm-starts from version 1's arms.
func TestSessionWikiRecipeEndToEnd(t *testing.T) {
	_, ts := newTestServer(t)
	gen := corpus.DefaultWikiConfig()
	gen.N = 600
	ins, err := corpus.GenerateWiki(gen, rng.New(25))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wiki.jsonl")
	if err := corpus.WriteJSONL(path, ins); err != nil {
		t.Fatal(err)
	}
	decodeBody[CorpusInfo](t, postJSON(t, ts.URL+"/corpora", corpusAddRequest{Name: "wiki", Path: path}), http.StatusCreated)
	created := decodeBody[SessionInfo](t, postJSON(t, ts.URL+"/sessions",
		SessionSpec{Corpus: "wiki", Task: "wiki", K: 8, Seed: 3, MaxInputs: 150, EvalEvery: 25}), http.StatusCreated)
	sessURL := ts.URL + "/sessions/" + created.ID
	for i, top := range []int{5, 6} {
		rec := map[string]any{"name": "smoke", "parts": []map[string]any{
			{"name": "base", "kind": "wiki", "version": 2},
			{"name": "mid", "kind": "wiki", "version": 4, "deps": []string{"base"}},
			{"name": "top", "kind": "wiki", "version": top, "deps": []string{"mid"}},
		}}
		decodeBody[map[string]any](t, postJSON(t, sessURL+"/runs", rec), http.StatusAccepted)
		pollSession(t, sessURL, i+1)
	}
	v2 := decodeBody[SessionInfo](t, mustGet(t, sessURL), http.StatusOK).Versions[1]
	if v2.CacheHits == 0 || v2.SharedParts != 2 || !v2.WarmStart.Applied {
		t.Fatalf("v2: cache_hits=%d shared_parts=%d warm_start=%+v, want hits, 2 shared parts, applied",
			v2.CacheHits, v2.SharedParts, v2.WarmStart)
	}
}

// newSlowServer is a server whose every extraction sleeps 3ms, so runs and
// versions last long enough for tests to observe them executing; it
// serves the "imgs" image corpus.
func newSlowServer(t *testing.T, workers int) *Server {
	t.Helper()
	slow, err := fault.Parse("extract:lat=3ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Workers: workers, QueueCap: 16, Faults: slow})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(t, s, 10*time.Second) })
	if _, err := s.Registry().Add("imgs", writeImageCorpus(t, 500, 26), false); err != nil {
		t.Fatal(err)
	}
	return s
}

// submitVersion submits a recipe (in its JSON form) as sess's next version.
func submitVersion(t *testing.T, s *Server, sess *Session, rec map[string]any) {
	t.Helper()
	raw, _ := json.Marshal(rec)
	var spec recipe.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if _, err := s.sessions.Submit(sess, &spec); err != nil {
		t.Fatal(err)
	}
}

// awaitVersion waits for version ver (1-based) of sess to finish done.
func awaitVersion(t *testing.T, sess *Session, ver int) sessionVersionInfo {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := sess.Info().Versions[ver-1]
		switch v.State {
		case StateDone:
			return v
		case StateFailed, StateCancelled:
			t.Fatalf("session %s version %d ended %s: %s", sess.ID, ver, v.State, v.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("session %s version %d did not finish", sess.ID, ver)
	return sessionVersionInfo{}
}

// versionSpan returns when version ver (1-based) of sess started and
// finished executing, from its record.
func versionSpan(sess *Session, ver int) (started, finished int64) {
	sess.mu.Lock()
	v := sess.versions[ver-1]
	sess.mu.Unlock()
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rec.Started, v.rec.Finished
}

// TestRunsAndVersionsShareOnePool: Workers bounds runs and session
// versions together, so with one worker a run and a version submitted
// together never execute at the same instant.
func TestRunsAndVersionsShareOnePool(t *testing.T) {
	s := newSlowServer(t, 1)
	sess, err := s.sessions.Create(SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 60, EvalEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.manager.Submit(RunSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 60, EvalEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	submitVersion(t, s, sess, imageRecipeSpec(2))
	awaitRun(t, s, run.ID)
	awaitVersion(t, sess, 1)
	run.mu.Lock()
	runStarted, runFinished := run.rec.Started, run.rec.Finished
	run.mu.Unlock()
	verStarted, verFinished := versionSpan(sess, 1)
	if runStarted < verFinished && verStarted < runFinished {
		t.Fatalf("run executed over [%d, %d] and the version over [%d, %d]: overlap on one worker",
			runStarted, runFinished, verStarted, verFinished)
	}
}

// TestParkedVersionFreesItsWorker: a version dequeued while its session's
// previous version executes parks on the session instead of holding a
// worker, so another session's version runs on the second worker
// meanwhile — and the parked version still runs after its predecessor,
// warm-starting from it.
func TestParkedVersionFreesItsWorker(t *testing.T) {
	s := newSlowServer(t, 2)
	a, err := s.sessions.Create(SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 200, EvalEvery: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.sessions.Create(SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 20, EvalEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	submitVersion(t, s, a, imageRecipeSpec(2))
	submitVersion(t, s, a, imageRecipeSpec(3))
	submitVersion(t, s, b, imageRecipeSpec(2))
	awaitVersion(t, b, 1)
	if st := a.Info().Versions[0].State; st != StateRunning {
		t.Fatalf("session A's v1 is %s when session B's v1 finished, want running", st)
	}
	if v2 := awaitVersion(t, a, 2); !v2.WarmStart.Applied {
		t.Fatalf("session A's v2 did not warm-start: %+v", v2.WarmStart)
	}
	_, v1Finished := versionSpan(a, 1)
	if v2Started, _ := versionSpan(a, 2); v2Started < v1Finished {
		t.Fatal("session A's v2 started before v1 finished")
	}
}

// TestVersionIsARun: a session version is the run <session>.v<N> — served
// by the run endpoints, cancellable with DELETE, kept out of GET /runs —
// and its outcome maps exactly like a run's: over the server's run
// timeout it ends cancelled and timed_out, over the failure budget it
// ends failed with the budget message.
func TestVersionIsARun(t *testing.T) {
	slow, err := fault.Parse("extract:lat=2ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	panics, err := fault.Parse("extract:panic=0.9", 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cfg     Config
		state   RunState
		timeout bool
		err     string
	}{
		{"run timeout", Config{RunTimeout: 400 * time.Millisecond, Faults: slow}, StateCancelled, true, ""},
		{"failure budget", Config{MaxFailureFrac: 0.25, Faults: panics}, StateFailed, false, "failure budget exceeded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Workers, tc.cfg.QueueCap = 1, 16
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, s, 10*time.Second)
			if _, err := s.Registry().Add("imgs", writeImageCorpus(t, 1500, 27), false); err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			sess, err := s.sessions.Create(SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 400, EvalEvery: 50})
			if err != nil {
				t.Fatal(err)
			}
			submitVersion(t, s, sess, imageRecipeSpec(2))
			v1, ok := s.manager.Get(sess.ID + ".v1")
			if !ok {
				t.Fatalf("version 1 is not run %s.v1", sess.ID)
			}
			<-v1.done
			info := decodeBody[RunInfo](t, mustGet(t, ts.URL+"/runs/"+v1.ID), http.StatusOK)
			if info.State != tc.state || info.TimedOut != tc.timeout || !strings.Contains(info.Error, tc.err) || info.Stop == "" {
				t.Fatalf("version run: %+v", info)
			}
			if vi := sess.Info().Versions[0]; vi.State != tc.state || vi.Error != info.Error || len(vi.Curve) != info.CurvePoints {
				t.Fatalf("session view of the version: %+v", vi)
			}
			if runs := decodeBody[[]RunInfo](t, mustGet(t, ts.URL+"/runs"), http.StatusOK); len(runs) != 0 {
				t.Fatalf("GET /runs lists session versions: %+v", runs)
			}
		})
	}
}

// TestCancelQueuedVersion: DELETE on a queued version cancels it, and the
// session's later versions still run in index order without waiting on it.
func TestCancelQueuedVersion(t *testing.T) {
	s := newSlowServer(t, 1)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sess, err := s.sessions.Create(SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 60, EvalEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, mid := range []int{2, 3, 3} {
		submitVersion(t, s, sess, imageRecipeSpec(mid))
	}
	info := decodeBody[RunInfo](t, doDelete(t, ts.URL+"/runs/"+sess.ID+".v2"), http.StatusOK)
	if info.State != StateCancelled {
		t.Fatalf("DELETE on queued version 2: %+v", info)
	}
	v3 := awaitVersion(t, sess, 3)
	_, v1Finished := versionSpan(sess, 1)
	if v3Started, _ := versionSpan(sess, 3); v3Started < v1Finished {
		t.Fatal("version 3 started before version 1 finished")
	}
	if got := sess.Info().Versions[1].State; got != StateCancelled {
		t.Fatalf("version 2 is %s, want cancelled", got)
	}
	if !v3.WarmStart.Applied || v3.Diff == nil || !reflect.DeepEqual(v3.Diff.Changed, []string{"mid"}) {
		t.Fatalf("version 3 did not build on version 1: warm start %+v, diff %+v", v3.WarmStart, v3.Diff)
	}
}

// TestVersionBuildsOnLatestDone: a version warm-starts from, and diffs
// against, the session's latest done version — a cancelled one in between
// counts for nothing, in the live workspace and in the one a restarted
// server rebuilds alike. Each such version's curve and warm start are
// byte-identical to the same recipe submitted right after that done
// version in a session that never saw the cancelled one.
func TestVersionBuildsOnLatestDone(t *testing.T) {
	state := t.TempDir()
	corpus := writeImageCorpus(t, 500, 39)
	slow, err := fault.Parse("extract:lat=3ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	spec := SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 120, EvalEvery: 40}
	cancelRunning := func(s *Server, sess *Session, mid int) {
		t.Helper()
		submitVersion(t, s, sess, imageRecipeSpec(mid))
		ver := len(sess.Info().Versions)
		v, _ := s.manager.Get(versionRunID(sess.ID, ver))
		deadline := time.Now().Add(30 * time.Second)
		for len(v.Curve()) == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("version %d never produced a curve point", ver)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if info, err := s.manager.Cancel(v.ID); err != nil || info.State != StateRunning {
			t.Fatalf("cancel running version %d: %+v, %v", ver, info, err)
		}
		if <-v.done; v.State() != StateCancelled {
			t.Fatalf("version %d is %s, want cancelled", ver, v.State())
		}
	}

	// The reference session: mid 2, 3, 2 with nothing cancelled.
	s1, _, _ := newDurableServer(t, state, corpus, Config{Faults: slow})
	ref, err := s1.sessions.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, mid := range []int{2, 3, 2} {
		submitVersion(t, s1, ref, imageRecipeSpec(mid))
		awaitVersion(t, ref, i+1)
	}
	want := ref.Info().Versions

	// Live: v2 is cancelled mid-run, so v3 builds on v1.
	sess, err := s1.sessions.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	submitVersion(t, s1, sess, imageRecipeSpec(2))
	awaitVersion(t, sess, 1)
	cancelRunning(s1, sess, 3)
	submitVersion(t, s1, sess, imageRecipeSpec(3))
	sameVersion(t, awaitVersion(t, sess, 3), want[1])

	// Restart with v4 cancelled: v5 builds on v3.
	cancelRunning(s1, sess, 2)
	shutdown(t, s1, 10*time.Second)
	s2, _, _ := newDurableServer(t, state, corpus, Config{Faults: slow})
	defer shutdown(t, s2, 10*time.Second)
	restored, _ := s2.sessions.Get(sess.ID)
	submitVersion(t, s2, restored, imageRecipeSpec(2))
	sameVersion(t, awaitVersion(t, restored, 5), want[2])
}

// sameVersion fails unless got ran exactly as want did: same diff, warm
// start, curve and final quality.
func sameVersion(t *testing.T, got, want sessionVersionInfo) {
	t.Helper()
	if !reflect.DeepEqual(got.Diff, want.Diff) || got.WarmStart != want.WarmStart ||
		!reflect.DeepEqual(got.Curve, want.Curve) || got.Final != want.Final {
		t.Fatalf("version %d did not build on the latest done version:\n got  %+v\n want %+v", got.Version, got, want)
	}
}

func doDelete(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
