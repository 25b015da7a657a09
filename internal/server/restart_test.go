package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"zombie/internal/fault"
	"zombie/internal/recipe"
)

// newDurableServer mirrors the zombie-serve startup sequence over a state
// directory: New (which replays the directory), register the corpus, then
// Recover to re-queue interrupted work. It returns the server plus what
// Recover re-queued.
func newDurableServer(t *testing.T, stateDir, corpusPath string, cfg Config) (*Server, int, int) {
	t.Helper()
	cfg.StateDir = stateDir
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 16
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().Add("imgs", corpusPath, false); err != nil {
		t.Fatal(err)
	}
	runs, versions := s.Recover()
	return s, runs, versions
}

func shutdown(t *testing.T, s *Server, wait time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	s.Shutdown(ctx) //nolint:errcheck // crash tests cut the drain short on purpose
}

// awaitRun blocks until the run is terminal and asserts it ended done.
func awaitRun(t *testing.T, s *Server, id string) RunInfo {
	t.Helper()
	run, ok := s.manager.Get(id)
	if !ok {
		t.Fatalf("run %s missing", id)
	}
	select {
	case <-run.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("run %s did not finish", id)
	}
	info := run.Info()
	if info.State != StateDone {
		t.Fatalf("run %s state = %s (%s)", id, info.State, info.Error)
	}
	return info
}

// TestRestartAfterKillResumesRun is the chaos-kill resume contract: a
// server dies (simulated via the store's freeze hook, which drops every
// journal write from that moment, exactly as kill -9 would) while a run is mid-curve; a second server
// over the same state directory re-queues the run, re-executes it, and
// the recovered curve is byte-identical to an uninterrupted run of the
// same spec.
func TestRestartAfterKillResumesRun(t *testing.T) {
	state := t.TempDir()
	corpus := writeImageCorpus(t, 500, 31)

	// Per-extraction latency stretches the run so the "crash" reliably
	// lands mid-curve. Latency faults never alter results.
	spec := RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", K: 8, Seed: 3,
		MaxInputs: 400, EvalEvery: 10, Faults: "extract:lat=3ms", FaultSeed: 7}

	s1, runs, versions := newDurableServer(t, state, corpus, Config{})
	if runs != 0 || versions != 0 {
		t.Fatalf("fresh state dir recovered %d runs, %d versions", runs, versions)
	}
	victim, err := s1.manager.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(victim.Curve()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("run never produced two curve points (state %s)", victim.State())
		}
		time.Sleep(2 * time.Millisecond)
	}
	s1.store.freeze() // the "kill -9"
	shutdown(t, s1, 50*time.Millisecond)

	// Restart: the run must come back, re-queue, and resume to done.
	s2, runs, versions := newDurableServer(t, state, corpus, Config{})
	defer shutdown(t, s2, 10*time.Second)
	if runs != 1 || versions != 0 {
		t.Fatalf("recovered %d runs, %d versions, want 1 run", runs, versions)
	}
	recovered := awaitRun(t, s2, victim.ID)
	if recovered.Recovered != 1 {
		t.Fatalf("recovered count = %d, want 1", recovered.Recovered)
	}
	if got := s2.obs.FlatSnapshot()["runs_recovered"]; got != 1 {
		t.Fatalf("runs_recovered metric = %d, want 1", got)
	}

	// The recovered curve is byte-identical to an uninterrupted run.
	reference, err := s2.manager.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refInfo := awaitRun(t, s2, reference.ID)
	recoveredRun, _ := s2.manager.Get(victim.ID)
	if !reflect.DeepEqual(recoveredRun.Curve(), reference.Curve()) {
		t.Fatalf("recovered curve diverged from uninterrupted run:\n%v\nvs\n%v",
			recoveredRun.Curve(), reference.Curve())
	}
	if recovered2 := recoveredRun.Info(); recovered2.FinalQuality != refInfo.FinalQuality {
		t.Fatalf("recovered quality %v != reference %v", recovered2.FinalQuality, refInfo.FinalQuality)
	}
}

// TestGracefulRestartPreservesHistory: a cleanly shut down server's runs
// come back terminal with their curves and summaries (replayed from the
// journal, the one file the state directory holds), IDs stay monotonic,
// and the step-trace endpoint says Gone rather than pretending the
// unjournaled trace exists.
func TestGracefulRestartPreservesHistory(t *testing.T) {
	state := t.TempDir()
	corpus := writeImageCorpus(t, 400, 32)
	spec := RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", K: 8, Seed: 3,
		MaxInputs: 60, EvalEvery: 20, Trace: true}

	s1, _, _ := newDurableServer(t, state, corpus, Config{})
	first, err := s1.manager.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := awaitRun(t, s1, first.ID)
	shutdown(t, s1, 10*time.Second)
	if entries, err := os.ReadDir(state); err != nil || len(entries) != 1 || entries[0].Name() != "runs.wal" {
		t.Fatalf("state dir after a graceful shutdown holds %v (%v), want only runs.wal", entries, err)
	}

	s2, runs, versions := newDurableServer(t, state, corpus, Config{})
	defer shutdown(t, s2, 10*time.Second)
	if runs != 0 || versions != 0 {
		t.Fatalf("graceful restart re-queued %d runs, %d versions, want none", runs, versions)
	}
	restored, ok := s2.manager.Get(first.ID)
	if !ok {
		t.Fatalf("run %s lost across restart", first.ID)
	}
	info := restored.Info()
	if info.State != StateDone || info.Recovered != 0 {
		t.Fatalf("restored run: %+v", info)
	}
	if info.FinalQuality != done.FinalQuality || info.InputsProcessed != done.InputsProcessed ||
		info.Stop != done.Stop || info.CurvePoints != done.CurvePoints {
		t.Fatalf("restored summary diverged:\n%+v\nvs\n%+v", info, done)
	}
	select {
	case <-restored.done:
	default:
		t.Fatal("restored terminal run's Done channel is open")
	}

	// IDs continue after the highest persisted one instead of colliding.
	second, err := s2.manager.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "r2" {
		t.Fatalf("post-restart run ID = %s, want r2", second.ID)
	}
	awaitRun(t, s2, second.ID)

	// The step trace was deliberately not journaled: Gone, not a 409/500.
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resp := mustGet(t, ts.URL+"/runs/"+first.ID+"/events")
	decodeBody[errorBody](t, resp, http.StatusGone)
	// The re-executed second run served its trace normally.
	resp = mustGet(t, ts.URL+"/runs/"+second.ID+"/events")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh run events status = %d", resp.StatusCode)
	}
}

// TestSessionRestartWarmStartsFromPersistedArms: session history survives
// a restart, and the first post-restart version diffs against — and
// warm-starts from the persisted arm snapshots of — the pre-restart
// history. A version interrupted by a crash is re-queued and completes.
func TestSessionRestartWarmStartsFromPersistedArms(t *testing.T) {
	state := t.TempDir()
	corpus := writeImageCorpus(t, 500, 33)
	sessionSpec := SessionSpec{Name: "ws", Corpus: "imgs", Task: "image", K: 8, Seed: 3,
		MaxInputs: 120, EvalEvery: 25}

	s1, _, _ := newDurableServer(t, state, corpus, Config{})
	ts1 := httptest.NewServer(s1.Handler())
	created := decodeBody[SessionInfo](t, postJSON(t, ts1.URL+"/sessions", sessionSpec), http.StatusCreated)
	decodeBody[map[string]any](t, postJSON(t, ts1.URL+"/sessions/"+created.ID+"/runs", imageRecipeSpec(2)), http.StatusAccepted)
	pollSession(t, ts1.URL+"/sessions/"+created.ID, 1)
	ts1.Close()
	shutdown(t, s1, 10*time.Second)

	// Restart: v1 is visible with its curve; v2 submitted now diffs
	// against v1's recipe and warm-starts from its persisted arms. The
	// extraction latency stretches version runs so the crash below
	// reliably lands while v3 is still in flight (latency faults never
	// alter results).
	slow, err := fault.Parse("extract:lat=3ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, _ := newDurableServer(t, state, corpus, Config{Faults: slow})
	ts2 := httptest.NewServer(s2.Handler())
	info := decodeBody[SessionInfo](t, mustGet(t, ts2.URL+"/sessions/"+created.ID), http.StatusOK)
	if len(info.Versions) != 1 || info.Versions[0].State != StateDone || len(info.Versions[0].Curve) == 0 {
		t.Fatalf("restored session: %+v", info)
	}
	decodeBody[map[string]any](t, postJSON(t, ts2.URL+"/sessions/"+created.ID+"/runs", imageRecipeSpec(3)), http.StatusAccepted)
	info = pollSession(t, ts2.URL+"/sessions/"+created.ID, 2)
	v2 := info.Versions[1]
	if !v2.WarmStart.Applied || v2.WarmStart.SeededPulls == 0 {
		t.Fatalf("post-restart v2 warm start: %+v", v2.WarmStart)
	}
	if v2.Diff == nil || !reflect.DeepEqual(v2.Diff.Changed, []string{"mid"}) {
		t.Fatalf("post-restart v2 diff: %+v", v2.Diff)
	}

	// Crash with v3 in flight: the next server re-queues and finishes it.
	// (v3 edits the base part; image feature versions only go up to 3.)
	v3spec := map[string]any{
		"name": "rec",
		"parts": []map[string]any{
			{"name": "base", "kind": "image", "version": 2},
			{"name": "mid", "kind": "image", "version": 3, "deps": []string{"base"}},
		},
	}
	decodeBody[map[string]any](t, postJSON(t, ts2.URL+"/sessions/"+created.ID+"/runs", v3spec), http.StatusAccepted)
	s2.store.freeze()
	ts2.Close()
	shutdown(t, s2, 50*time.Millisecond)

	s3, _, versions := newDurableServer(t, state, corpus, Config{})
	defer shutdown(t, s3, 10*time.Second)
	if versions != 1 {
		t.Fatalf("recovered %d versions, want 1", versions)
	}
	if got := s3.obs.FlatSnapshot()["versions_recovered"]; got != 1 {
		t.Fatalf("versions_recovered metric = %d, want 1", got)
	}
	ts3 := httptest.NewServer(s3.Handler())
	defer ts3.Close()
	info = pollSession(t, ts3.URL+"/sessions/"+created.ID, 3)
	v3 := info.Versions[2]
	if !v3.WarmStart.Applied || v3.WarmStart.SeededPulls == 0 {
		t.Fatalf("recovered v3 warm start: %+v", v3.WarmStart)
	}
}

// TestJournalErrorsDemoteToMemory: a dying disk under the state directory
// (every journal append failing, injected at the journal.write site)
// never fails a run — the store absorbs the errors, demotes itself to
// memory-only after the limit, and the next startup simply finds nothing.
func TestJournalErrorsDemoteToMemory(t *testing.T) {
	state := t.TempDir()
	corpus := writeImageCorpus(t, 300, 34)
	inj, err := fault.Parse("journal.write:err=1", 1)
	if err != nil {
		t.Fatal(err)
	}

	s1, _, _ := newDurableServer(t, state, corpus, Config{Faults: inj})
	run, err := s1.manager.Submit(RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie",
		K: 8, Seed: 3, MaxInputs: 40, EvalEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	awaitRun(t, s1, run.ID) // journal failures must not touch the run
	ds := s1.store
	if !ds.Demoted() {
		t.Fatal("store not demoted after persistent journal failures")
	}
	snap := s1.obs.FlatSnapshot()
	if snap["journal_errors"] < journalErrorLimit {
		t.Fatalf("journal_errors = %d, want >= %d", snap["journal_errors"], journalErrorLimit)
	}
	if snap["journal_demoted"] != 1 {
		t.Fatalf("journal_demoted gauge = %d, want 1", snap["journal_demoted"])
	}
	shutdown(t, s1, 10*time.Second)

	// The demoted store persisted nothing: a restart starts clean.
	s2, runs, versions := newDurableServer(t, state, corpus, Config{})
	defer shutdown(t, s2, 10*time.Second)
	if runs != 0 || versions != 0 {
		t.Fatalf("demoted store left recoverable state: %d runs, %d versions", runs, versions)
	}
	if _, ok := s2.manager.Get(run.ID); ok {
		t.Fatal("demoted store persisted the run anyway")
	}
}

// TestRejectedVersionIsNotRecovered: a version submitted while the hub is
// shutting down is refused whole — 503 to the client, nothing appended to
// the session, nothing journaled — so the next process has nothing to
// recover: a version the client was told had been rejected must not run
// after a restart.
func TestRejectedVersionIsNotRecovered(t *testing.T) {
	state := t.TempDir()
	corpus := writeImageCorpus(t, 300, 36)
	s1, _, _ := newDurableServer(t, state, corpus, Config{})
	sess, err := s1.sessions.Create(SessionSpec{Corpus: "imgs", Task: "image", K: 8, MaxInputs: 40, EvalEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(imageRecipeSpec(2))
	var spec recipe.Spec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.manager.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.sessions.Submit(sess, &spec); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("Submit after Shutdown = %v, want ErrShuttingDown", err)
	}
	if n := len(sess.Info().Versions); n != 0 {
		t.Fatalf("rejected submit left %d versions in the session", n)
	}
	shutdown(t, s1, 10*time.Second)

	s2, runs, versions := newDurableServer(t, state, corpus, Config{})
	defer shutdown(t, s2, 10*time.Second)
	if runs != 0 || versions != 0 {
		t.Fatalf("recovered %d runs, %d versions, want none", runs, versions)
	}
	restored, ok := s2.sessions.Get(sess.ID)
	if !ok || len(restored.Info().Versions) != 0 {
		t.Fatalf("restored session: ok=%v %+v", ok, restored)
	}
}

// TestEventsAndTraceReadTheRecord pins what the two step-trace endpoints
// answer for a run without an engine result, by why it has none: 410 only
// when the result belonged to a previous process (the digest survived, the
// step log was never journaled), 404 naming the state and error when the
// run never produced one; and phase_ms comes from the digest, so a restored
// traced run serves it on /trace exactly as on /runs/{id}.
func TestEventsAndTraceReadTheRecord(t *testing.T) {
	s, err := New(Config{StateDir: copyFixture(t, fixtures[0]), Workers: 1, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s, 10*time.Second)
	if _, err := s.Registry().Add("imgs", writeImageCorpus(t, 300, 37), false); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	submit := func(spec RunSpec) *Run {
		t.Helper()
		spec.Corpus, spec.Task, spec.Trace = "imgs", "image", true
		run, err := s.manager.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	liveDone := submit(RunSpec{K: 8, MaxInputs: 40, EvalEvery: 20})
	liveFailed := submit(RunSpec{K: 4, MaxInputs: 40, Faults: "index.build:err=1", FaultSeed: 3}) // K=4: not the cached index
	<-liveDone.done
	<-liveFailed.done
	blocker := submit(RunSpec{K: 8, MaxInputs: 100, Faults: "extract:lat=3ms"})
	cancelledQueued := submit(RunSpec{K: 8, MaxInputs: 40})
	for _, id := range []string{cancelledQueued.ID, blocker.ID} {
		if _, err := s.manager.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
	<-blocker.done

	cases := []struct {
		name, id   string
		state      RunState
		events     int
		eventsSays string
		phases     bool
	}{
		{"live done", liveDone.ID, StateDone, http.StatusOK, "", true},
		{"live failed without a result", liveFailed.ID, StateFailed, http.StatusNotFound, "failed without a result: server: index build", false},
		{"cancelled while queued", cancelledQueued.ID, StateCancelled, http.StatusNotFound, "cancelled without a result", false},
		{"restored done", "r1", StateDone, http.StatusGone, "predates this server process", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			info := decodeBody[RunInfo](t, mustGet(t, ts.URL+"/runs/"+tc.id), http.StatusOK)
			if info.State != tc.state || (info.PhaseMillis != nil) != tc.phases {
				t.Fatalf("info: %+v", info)
			}
			resp := mustGet(t, ts.URL+"/runs/"+tc.id+"/events")
			if tc.events == http.StatusOK {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("events status = %d, want 200", resp.StatusCode)
				}
			} else if body := decodeBody[errorBody](t, resp, tc.events); !strings.Contains(body.Error, tc.eventsSays) {
				t.Fatalf("events error = %q, want it to say %q", body.Error, tc.eventsSays)
			}
			trace := decodeBody[struct {
				State  RunState           `json:"state"`
				Phases map[string]float64 `json:"phase_ms"`
			}](t, mustGet(t, ts.URL+"/runs/"+tc.id+"/trace"), http.StatusOK)
			if trace.State != tc.state || !reflect.DeepEqual(trace.Phases, info.PhaseMillis) {
				t.Fatalf("trace state %s phase_ms %v, info state %s phase_ms %v",
					trace.State, trace.Phases, info.State, info.PhaseMillis)
			}
		})
	}
}

// TestRecoveredVersionsRunInOrder: a crash with session version 2
// running and version 3 queued behind it leaves both to recover. Recover
// re-submits them through the live path; they re-execute one at a time in
// index order, and version 3 diffs against — and warm-starts from —
// version 2, not version 1.
func TestRecoveredVersionsRunInOrder(t *testing.T) {
	state := t.TempDir()
	corpus := writeImageCorpus(t, 500, 38)
	slow, err := fault.Parse("extract:lat=3ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	s1, _, _ := newDurableServer(t, state, corpus, Config{Faults: slow})
	sess, err := s1.sessions.Create(SessionSpec{Corpus: "imgs", Task: "image", K: 8, Seed: 3, MaxInputs: 120, EvalEvery: 40})
	if err != nil {
		t.Fatal(err)
	}
	submitVersion(t, s1, sess, imageRecipeSpec(2))
	awaitVersion(t, sess, 1)
	submitVersion(t, s1, sess, imageRecipeSpec(3))
	submitVersion(t, s1, sess, imageRecipeSpec(2))
	deadline := time.Now().Add(30 * time.Second)
	for sess.Info().Versions[1].State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("version 2 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := sess.Info().Versions[2].State; st != StateQueued {
		t.Fatalf("version 3 is %s at kill time, want queued", st)
	}
	s1.store.freeze()
	shutdown(t, s1, 50*time.Millisecond)

	// Two workers: one dequeues version 3 while the other executes version
	// 2, so version 3 takes the park path.
	s2, runs, versions := newDurableServer(t, state, corpus, Config{Workers: 2})
	defer shutdown(t, s2, 10*time.Second)
	if runs != 0 || versions != 2 {
		t.Fatalf("Recover() = (%d, %d), want (0, 2)", runs, versions)
	}
	restored, _ := s2.sessions.Get(sess.ID)
	v3 := awaitVersion(t, restored, 3)
	awaitVersion(t, restored, 2)
	_, v2Finished := versionSpan(restored, 2)
	if v3Started, _ := versionSpan(restored, 3); v3Started < v2Finished {
		t.Fatal("recovered version 3 started before version 2 finished")
	}
	if !v3.WarmStart.Applied || v3.Diff == nil || !reflect.DeepEqual(v3.Diff.Changed, []string{"mid"}) {
		t.Fatalf("recovered version 3 did not build on version 2: warm start %+v, diff %+v", v3.WarmStart, v3.Diff)
	}
}
