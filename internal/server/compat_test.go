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
	"strings"
	"testing"
	"time"

	"zombie/internal/fault"
	"zombie/internal/runstore"
)

// The testdata/state-* directories are state directories older servers
// wrote: runFixtureScript below was run there and the two files it left
// were copied here unmodified, with the GET /runs and GET /sessions
// listings that server served over them as the goldens. state-pr13 comes
// from commit a86fe96, the last one with the RunStore interface, the
// persist* mirror types and the run-quarantine record (its script reached
// the store through s.store.(*DurableStore)); state-pr33 from commit
// 8f8ebd4, the last one to journal session versions as version-* records.
// The tests in this file hold the current code to both: it must restore
// them, their record encoding must be byte-stable, and the same script
// must journal the same runs.

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files from the current code")

// fixtures lists the checked-in state directories, oldest first.
var fixtures = []string{"testdata/state-pr13", "testdata/state-pr33"}

// fixtureCorpus is the corpus every fixture run and session refers to.
func fixtureCorpus(t *testing.T) string { return writeImageCorpus(t, 2000, 35) }

// runFixtureScript drives two server processes over stateDir. The first
// finishes run r1 (traced, with quarantines) and session s1's version 1,
// then shuts down gracefully; the servers that wrote the fixtures wrote
// both to state.snap then, the current one leaves them in runs.wal. The second, with
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
	r1, err := s1.manager.Submit(traced)
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
	r2, err := s2.manager.Submit(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if info := awaitRun(t, s2, r2.ID); info.Quarantined == 0 {
		t.Fatal("r2 quarantined nothing")
	}
	r3, err := s2.manager.Submit(RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", K: 8, Seed: 3,
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
	r4, err := s2.manager.Submit(RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 1200, EvalEvery: 300})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := s2.manager.Cancel(r4.ID); err != nil || info.State != StateCancelled {
		t.Fatalf("cancel queued r4: %+v, %v", info, err)
	}
	time.Sleep(20 * time.Millisecond) // let version 2's start record reach the journal
	if r3.State() != StateRunning {
		t.Fatalf("r3 is %s at kill time, want running", r3.State())
	}
	s2.store.freeze() // kill -9
	ts2.Close()
	shutdown(t, s2, 50*time.Millisecond)
}

// copyFixture copies a checked-in state directory somewhere writable
// (opening a state directory appends to it).
func copyFixture(t testing.TB, fixture string) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"runs.wal", "state.snap"} {
		b, err := os.ReadFile(filepath.Join(fixture, name))
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
func readState(t testing.TB, dir string) (snapshot []byte, journal [][]byte) {
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

// TestFixtureRestoresToGolden: each fixture state directory opens under
// the current code, serves the golden run and session listings before
// Recover (interrupted work shown as the crash left it), and Recover
// re-queues exactly the killed run and the killed version, which then
// finish.
func TestFixtureRestoresToGolden(t *testing.T) {
	for _, fixture := range fixtures {
		t.Run(filepath.Base(fixture), func(t *testing.T) {
			s, err := New(Config{StateDir: copyFixture(t, fixture), Workers: 1, QueueCap: 16})
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
				golden = filepath.Join(fixture, golden)
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
		})
	}
}

// TestFixtureRecordEncodingIsStable: every journal payload a fixture
// server wrote decodes into today's walRecord and re-encodes to the same
// bytes — field names, order and omissions are the on-disk contract — and
// applies, the version-* records through the legacy translation. The
// snapshot decodes and re-encodes to the same document. state-pr13 also
// holds the retired run-quarantine records, which decode too and which
// the reducer skips, and a per-run quarantine counter those records fed,
// which the re-encoded snapshot drops.
func TestFixtureRecordEncodingIsStable(t *testing.T) {
	for _, fixture := range fixtures {
		t.Run(filepath.Base(fixture), func(t *testing.T) {
			retired := fixture == fixtures[0]
			snapshot, journal := readState(t, copyFixture(t, fixture))
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
			if (quarantine > 0) != retired {
				t.Fatalf("fixture journal holds %d run-quarantine records", quarantine)
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
			if (dropped > 0) != retired {
				t.Fatalf("fixture snapshot holds %d per-run quarantine counters", dropped)
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
		})
	}
}

// TestScriptJournalsWhatPR13Journaled: the current code, driven through
// the script that produced the fixtures, journals the same records as the
// state-pr13 server for every POST /runs run whose records the fixture's
// journal holds (r2–r4), in the same order; r1 lives in the fixture's
// state.snap, so it is compared through the reductions below. Only the
// interleaving of different runs' records may differ: the server that
// wrote state-pr13 ran session versions on a second pool of their own, so
// version 2 ran beside r3 while r4 queued behind r3; versions now share
// the run pool, so the script gives that process two workers and submits
// version 2 before r4. Session versions journal run-* records now, not
// the version-* records of the fixture, so for them the test compares
// reductions: the script's directory and the fixture's, each opened by
// the current code, reduce to the same state.
// Clocks are not injectable, so wall-clock values (record times, phase_ms)
// are ignored on both sides; the fixture's run-quarantine records are
// dropped, as are the curve points of the killed run r3 and the killed
// version s1.v2 (how many reach the journal before the kill is a race).
// A legacy version record never carried a strategy or phase_ms, so the
// version runs' digests are compared without them.
func TestScriptJournalsWhatPR13Journaled(t *testing.T) {
	dir := t.TempDir()
	runFixtureScript(t, dir, fixtureCorpus(t))
	fixture := copyFixture(t, fixtures[0])
	_, gotJournal := readState(t, dir)
	_, wantJournal := readState(t, fixture)

	// byRun splits a journal's POST /runs records by run ID.
	byRun := func(journal [][]byte) map[string][]any {
		out := map[string][]any{}
		for _, payload := range journal {
			rec := timeless(t, payload).(map[string]any)
			id := fmt.Sprint(rec["id"])
			if !strings.HasPrefix(id, "r") || rec["t"] == "run-quarantine" || (rec["t"] == recRunPoint && id == "r3") {
				continue
			}
			out[id] = append(out[id], rec)
		}
		return out
	}
	gotRecs, wantRecs := byRun(gotJournal), byRun(wantJournal)
	for id, want := range wantRecs {
		if !reflect.DeepEqual(gotRecs[id], want) {
			a, _ := json.Marshal(gotRecs[id])
			b, _ := json.Marshal(want)
			t.Errorf("%s journaled differently:\n got  %s\n want %s", id, a, b)
		}
	}

	reduce := func(dir string) any {
		ds, st, err := OpenDurableStore(dir, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Close(); err != nil {
			t.Fatal(err)
		}
		doc := timeless(t, mustJSON(t, st))
		for id, run := range doc.(map[string]any)["runs"].(map[string]any) {
			run := run.(map[string]any)
			if id == "r3" || id == "s1.v2" {
				delete(run, "curve")
			}
			if sum, ok := run["summary"].(map[string]any); ok && strings.HasPrefix(id, "s1.") {
				delete(sum, "strategy")
				delete(sum, "phase_ms")
			}
		}
		return doc
	}
	if got, want := reduce(dir), reduce(fixture); !reflect.DeepEqual(got, want) {
		a, _ := json.Marshal(got)
		b, _ := json.Marshal(want)
		t.Errorf("state differs:\n got  %s\n want %s", a, b)
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
