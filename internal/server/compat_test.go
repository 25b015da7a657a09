package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"zombie/internal/fault"
	"zombie/internal/runstore"
)

// testdata/state-pr13 is a state directory written by the PR 13 server
// (commit a86fe96, the last one with the RunStore interface, the persist*
// mirror types and the run-quarantine record): runFixtureScript below was
// run there — with the store reached through s.store.(*DurableStore) — and
// the two files it left were copied here unmodified. The tests in this
// file hold the current code to that directory: it must restore it, its
// record encoding must be byte-stable, and the same script must journal
// the same records.

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

const fixtureDir = "testdata/state-pr13"

// fixtureCorpus is the corpus every fixture run and session refers to.
func fixtureCorpus(t *testing.T) string { return writeImageCorpus(t, 2000, 35) }

// runFixtureScript drives two server processes over stateDir. The first
// finishes run r1 (traced, with quarantines) and session s1's version 1,
// then shuts down gracefully, so both land in state.snap. The second, with
// two workers, finishes r2 (quarantines again), starts r3 and version 2,
// cancels r4 while it is queued behind them, and kills the server while r3
// and version 2 run — all of that stays in runs.wal.
func runFixtureScript(t *testing.T, stateDir, corpus string) {
	t.Helper()
	faulty := RunSpec{Corpus: "imgs", Task: "image", Mode: "scan-random", MaxInputs: 1200, EvalEvery: 300,
		Faults: "extract:panic=0.02", FaultSeed: 7}

	s1, _, _ := newDurableServer(t, stateDir, corpus, Config{})
	traced := faulty
	traced.Mode, traced.K, traced.Seed, traced.Trace = "zombie", 8, 3, true
	r1, err := s1.Manager().Submit(traced)
	if err != nil {
		t.Fatal(err)
	}
	awaitRun(t, s1, r1.ID)
	ts1 := httptest.NewServer(s1.Handler())
	sess := decodeBody[SessionInfo](t, postJSON(t, ts1.URL+"/sessions", SessionSpec{Name: "ws", Corpus: "imgs",
		Task: "image", K: 8, Seed: 3, MaxInputs: 1200, EvalEvery: 300}), http.StatusCreated)
	decodeBody[map[string]any](t, postJSON(t, ts1.URL+"/sessions/"+sess.ID+"/runs", imageRecipeSpec(2)), http.StatusAccepted)
	pollSession(t, ts1.URL+"/sessions/"+sess.ID, 1)
	ts1.Close()
	shutdown(t, s1, 10*time.Second)

	// Latency stretches r3 and version 2 so the kill lands while they run.
	slow, err := fault.Parse("extract:lat=3ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, _ := newDurableServer(t, stateDir, corpus, Config{Faults: slow, Workers: 2})
	r2, err := s2.Manager().Submit(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if info := awaitRun(t, s2, r2.ID); info.Quarantined == 0 {
		t.Fatal("r2 quarantined nothing")
	}
	r3, err := s2.Manager().Submit(RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", K: 8, Seed: 3,
		MaxInputs: 100, EvalEvery: 10, Faults: "extract:lat=3ms", FaultSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for len(r3.Curve()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("r3 never produced two curve points")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ts2 := httptest.NewServer(s2.Handler())
	decodeBody[map[string]any](t, postJSON(t, ts2.URL+"/sessions/"+sess.ID+"/runs", imageRecipeSpec(3)), http.StatusAccepted)
	for {
		info := decodeBody[SessionInfo](t, mustGet(t, ts2.URL+"/sessions/"+sess.ID), http.StatusOK)
		if len(info.Versions) == 2 && info.Versions[1].State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("version 2 never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Both workers are busy, so r4 queues behind r3 and version 2.
	r4, err := s2.Manager().Submit(RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 1200, EvalEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := s2.Manager().Cancel(r4.ID); err != nil || info.State != StateCancelled {
		t.Fatalf("cancel queued r4: %+v, %v", info, err)
	}
	time.Sleep(20 * time.Millisecond) // let the version-start record reach the journal
	if r3.State() != StateRunning {
		t.Fatalf("r3 is %s at kill time, want running", r3.State())
	}
	s2.store.freeze() // kill -9
	ts2.Close()
	shutdown(t, s2, 50*time.Millisecond)
}

// copyFixture copies the checked-in state directory somewhere writable
// (opening a state directory appends to it).
func copyFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"runs.wal", "state.snap"} {
		b, err := os.ReadFile(filepath.Join(fixtureDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// readState returns a state directory's snapshot body and journal payloads
// (the records appended after that snapshot), raw.
func readState(t *testing.T, dir string) (snapshot []byte, journal [][]byte) {
	t.Helper()
	st, err := runstore.Open(dir,
		func(state []byte) error { snapshot = bytes.Clone(state); return nil },
		func(payload []byte) error { journal = append(journal, bytes.Clone(payload)); return nil })
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	return snapshot, journal
}

// TestFixtureRestoresToGolden: the PR 13 state directory opens under the
// current code, serves the golden run and session listings before Recover
// (interrupted work shown as the crash left it), and Recover re-queues
// exactly the killed run and the killed version, which then finish.
func TestFixtureRestoresToGolden(t *testing.T) {
	s, err := New(Config{StateDir: copyFixture(t), Workers: 1, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s, 10*time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for path, golden := range map[string]string{"/runs": "runs.golden.json", "/sessions": "sessions.golden.json"} {
		resp := mustGet(t, ts.URL+path)
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		golden = filepath.Join(fixtureDir, golden)
		if *updateGolden {
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GET %s differs from %s:\n%s", path, golden, got)
		}
	}

	if _, err := s.Registry().Add("imgs", fixtureCorpus(t), false); err != nil {
		t.Fatal(err)
	}
	if runs, versions := s.Recover(); runs != 1 || versions != 1 {
		t.Fatalf("Recover() = (%d, %d), want (1, 1)", runs, versions)
	}
	if info := awaitRun(t, s, "r3"); info.Recovered != 1 || info.CurvePoints != 11 {
		t.Fatalf("recovered r3: %+v", info)
	}
	info := pollSession(t, ts.URL+"/sessions/s1", 2)
	if v2 := info.Versions[1]; !v2.WarmStart.Applied || !reflect.DeepEqual(v2.Diff.Changed, []string{"mid"}) {
		t.Fatalf("recovered version 2 did not build on version 1's persisted arms: %+v", v2)
	}
}

// TestFixtureRecordEncodingIsStable: every journal payload the PR 13 server
// wrote decodes into today's walRecord and re-encodes to the same bytes —
// field names, order and omissions are the on-disk contract. The retired
// run-quarantine records decode too and the reducer skips them. The
// snapshot re-encodes to the same document minus the per-run quarantine
// counter those records fed.
func TestFixtureRecordEncodingIsStable(t *testing.T) {
	snapshot, journal := readState(t, copyFixture(t))
	st := newPersistState()
	if err := json.Unmarshal(snapshot, st); err != nil {
		t.Fatal(err)
	}
	quarantine := 0
	for i, payload := range journal {
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		again, err := json.Marshal(&rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, payload) {
			t.Errorf("record %d re-encodes differently:\n was %s\n now %s", i, payload, again)
		}
		before, _ := json.Marshal(st)
		applied := st.apply(&rec)
		if rec.Type == "run-quarantine" {
			quarantine++
			if after, _ := json.Marshal(st); applied || !bytes.Equal(before, after) {
				t.Errorf("record %d: retired run-quarantine record was not skipped", i)
			}
		} else if !applied {
			t.Errorf("record %d (%s) rejected on replay", i, rec.Type)
		}
	}
	if quarantine == 0 {
		t.Fatal("fixture journal holds no run-quarantine record")
	}

	var was, now any
	if err := json.Unmarshal(snapshot, &was); err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for _, run := range was.(map[string]any)["runs"].(map[string]any) {
		if _, ok := run.(map[string]any)["quarantined"]; ok {
			delete(run.(map[string]any), "quarantined")
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("fixture snapshot holds no per-run quarantine counter")
	}
	var decoded persistState
	if err := json.Unmarshal(snapshot, &decoded); err != nil {
		t.Fatal(err)
	}
	again, _ := json.Marshal(&decoded)
	if err := json.Unmarshal(again, &now); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(was, now) {
		t.Errorf("snapshot re-encodes differently:\n was %s\n now %s", snapshot, again)
	}
}

// TestScriptJournalsWhatPR13Journaled: the current code, driven through
// the script that produced the fixture, leaves the same snapshot and, for
// every run and every session version, the same journal records in the
// same order. Only the interleaving of different owners' records may
// differ: the server that wrote the fixture ran session versions on a
// second pool of their own, so version 2 ran beside r3 while r4 queued
// behind r3; versions now share the run pool, so the script gives that
// process two workers and submits version 2 before r4, and version 2's
// records land ahead of r4's.
// Clocks are not injectable, so wall-clock values (record times, phase_ms)
// are zeroed on both sides; the fixture's run-quarantine records are
// dropped, as are the killed run's curve points (how many reach the
// journal before the kill is a race, in PR 13 as now).
func TestScriptJournalsWhatPR13Journaled(t *testing.T) {
	dir := t.TempDir()
	runFixtureScript(t, dir, fixtureCorpus(t))
	gotSnap, gotJournal := readState(t, dir)
	wantSnap, wantJournal := readState(t, copyFixture(t))

	got, want := timeless(t, gotSnap), timeless(t, wantSnap)
	for _, run := range want.(map[string]any)["runs"].(map[string]any) {
		delete(run.(map[string]any), "quarantined")
	}
	if !reflect.DeepEqual(got, want) {
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		t.Errorf("snapshot differs:\n got  %s\n want %s", a, b)
	}

	// byOwner splits a journal into per-owner record sequences, keyed by
	// run ID, or by session ID plus version for a session's records.
	byOwner := func(journal [][]byte) map[string][]any {
		out := map[string][]any{}
		for _, payload := range journal {
			rec := timeless(t, payload).(map[string]any)
			if rec["t"] == "run-quarantine" || (rec["t"] == recRunPoint && rec["id"] == "r3") {
				continue
			}
			owner := fmt.Sprint(rec["id"])
			if ver, ok := rec["ver"]; ok {
				owner += fmt.Sprintf("/v%v", ver)
			}
			out[owner] = append(out[owner], rec)
		}
		return out
	}
	gotRecs, wantRecs := byOwner(gotJournal), byOwner(wantJournal)
	for owner := range wantRecs {
		if _, ok := gotRecs[owner]; !ok {
			gotRecs[owner] = nil
		}
	}
	for owner, recs := range gotRecs {
		if !reflect.DeepEqual(recs, wantRecs[owner]) {
			a, _ := json.Marshal(recs)
			b, _ := json.Marshal(wantRecs[owner])
			t.Errorf("%s journaled differently:\n got  %s\n want %s", owner, a, b)
		}
	}
}

// timeless decodes a JSON document and zeroes every wall-clock value in it.
func timeless(t *testing.T, doc []byte) any {
	t.Helper()
	var v any
	if err := json.Unmarshal(doc, &v); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, child := range v {
				switch k {
				case "at", "created", "started", "finished":
					v[k] = 0.0
				case "phase_ms":
					for phase := range child.(map[string]any) {
						child.(map[string]any)[phase] = 0.0
					}
				default:
					walk(child)
				}
			}
		case []any:
			for _, child := range v {
				walk(child)
			}
		}
	}
	walk(v)
	return v
}
