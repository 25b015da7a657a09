package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/recipe"
	"zombie/internal/runstore"
)

// freeze is a test hook simulating a hard kill (kill -9) from this
// process's point of view: every subsequent journal append is dropped,
// leaving the on-disk state exactly as the "crash" found it. Tests then open a second store over
// the same directory, which is precisely what a restarted process does.
func (ds *DurableStore) freeze() {
	ds.mu.Lock()
	ds.frozen = true
	ds.mu.Unlock()
}

// TestReducerSequences drives the lifecycle reducers through every legal
// and illegal record sequence the server can produce, twice: against a
// bare persistState, and through a DurableStore that is killed (where the
// sequence says so, and again at the end) and reopened, then closed
// gracefully and reopened once more. An illegal record must report "not
// applied", change nothing and journal nothing; the state replayed from
// the journal, after the kill and again after the graceful close, must
// equal the bare one.
func TestReducerSequences(t *testing.T) {
	spec := &RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", Policy: "eps-greedy:0.1", K: 8, Seed: 1}
	point := func(n int) *core.CurvePoint { return &core.CurvePoint{Inputs: n, Quality: float64(n) / 100} }
	submit := walRecord{Type: recRunSubmit, ID: "r1", Num: 1, At: 10, Spec: spec}
	start := walRecord{Type: recRunStart, ID: "r1", At: 20}
	done := walRecord{Type: recRunFinish, ID: "r1", At: 30, State: StateDone,
		Summary: &runSummary{InputsProcessed: 40, FinalQuality: 0.4, Stop: "budget", PhaseMillis: map[string]float64{"eval": 1.5}}}
	cancelled := walRecord{Type: recRunFinish, ID: "r1", At: 15, State: StateCancelled}
	create := walRecord{Type: recSessCreate, ID: "s1", Num: 1, At: 10, Session: &SessionSpec{Corpus: "imgs", Task: "image", K: 8}}
	verSubmit := walRecord{Type: recVerSubmit, ID: "s1", Ver: 1, Recipe: &recipe.Spec{Name: "rec"}}
	verStart := walRecord{Type: recVerStart, ID: "s1", Ver: 1, At: 20}
	verDone := walRecord{Type: recVerFinish, ID: "s1", Ver: 1, At: 30, State: StateDone,
		Result: &versionResult{Curve: []core.CurvePoint{*point(0), *point(40)}, Final: 0.4, Inputs: 40, Stop: 1}}
	verFailed := walRecord{Type: recVerFinish, ID: "s1", Ver: 1, At: 12, State: StateFailed, Err: ErrQueueFull.Error()}
	vrSubmit := walRecord{Type: recRunSubmit, ID: "s1.v1", At: 10, Spec: spec, Ver: 1, Recipe: &recipe.Spec{Name: "rec"}}
	vrStart := walRecord{Type: recRunStart, ID: "s1.v1", At: 20}
	vrDone := walRecord{Type: recRunFinish, ID: "s1.v1", At: 30, State: StateDone, Summary: &runSummary{InputsProcessed: 40,
		Arms: []bandit.ArmSnapshot{{Arm: 0, Pulls: 3, Mean: 0.5}}, Diff: &recipe.Diff{Added: []string{"a"}, TotalParts: 1},
		WarmStart: &recipe.WarmStartStats{Decay: 0.5}}}

	type step struct {
		rec   walRecord
		legal bool
		crash bool // kill and reopen the store before this record
	}
	ok := func(rec walRecord) step { return step{rec: rec, legal: true} }
	no := func(rec walRecord) step { return step{rec: rec} }
	cases := []struct {
		name  string
		steps []step
	}{
		{"submit start points finish", []step{ok(submit), ok(start),
			ok(walRecord{Type: recRunPoint, ID: "r1", Point: point(0)}), ok(walRecord{Type: recRunPoint, ID: "r1", Point: point(40)}), ok(done)}},
		{"submit discard", []step{ok(submit), ok(walRecord{Type: recRunDiscard, ID: "r1"}),
			no(start), no(walRecord{Type: recRunDiscard, ID: "r1"})}},
		{"cancel queued then a late start", []step{ok(submit), ok(cancelled),
			no(start), no(walRecord{Type: recRunPoint, ID: "r1", Point: point(0)})}},
		{"start crash requeue start finish", []step{ok(submit), ok(start), ok(walRecord{Type: recRunPoint, ID: "r1", Point: point(0)}),
			{rec: walRecord{Type: recRunRequeue, ID: "r1"}, legal: true, crash: true},
			ok(walRecord{Type: recRunStart, ID: "r1", At: 50}), ok(walRecord{Type: recRunPoint, ID: "r1", Point: point(0)}), ok(done)}},
		{"finish twice", []step{ok(submit), ok(start), ok(done),
			no(walRecord{Type: recRunFinish, ID: "r1", At: 40, State: StateFailed, Err: "late"}), no(walRecord{Type: recRunRequeue, ID: "r1"})}},
		{"out of order", []step{ok(submit), no(walRecord{Type: recRunPoint, ID: "r1", Point: point(0)}), ok(start), no(start),
			no(walRecord{Type: recRunFinish, ID: "r1", At: 30, State: StateRunning}), no(walRecord{Type: recRunPoint, ID: "r1"})}},
		{"unknown run, unknown type", []step{no(start), no(done), no(walRecord{Type: "run-quarantine", ID: "r1"}),
			ok(submit), no(walRecord{Type: "run-quarantine", ID: "r1"}), no(walRecord{Type: recRunSubmit, ID: "r2"})}},
		{"version finish without start", []step{ok(create), ok(verSubmit), ok(verFailed), no(verStart), no(verDone)}},
		{"version start crash start finish", []step{no(verSubmit), ok(create), no(verStart), ok(verSubmit), ok(verStart),
			{rec: verStart, legal: true, crash: true}, ok(verDone), no(verDone), no(verStart),
			no(walRecord{Type: recVerStart, ID: "s1", Ver: 2, At: 40})}},
		{"version run crash requeue finish", []step{ok(create), ok(vrSubmit), ok(vrStart),
			ok(walRecord{Type: recRunPoint, ID: "s1.v1", Point: point(0)}),
			{rec: walRecord{Type: recRunRequeue, ID: "s1.v1"}, legal: true, crash: true},
			ok(vrStart), ok(walRecord{Type: recRunPoint, ID: "s1.v1", Point: point(40)}), ok(vrDone), no(vrStart)}},
		{"version run discarded, index reused", []step{ok(create), ok(vrSubmit), ok(walRecord{Type: recRunDiscard, ID: "s1.v1"}),
			no(vrStart), ok(vrSubmit), ok(walRecord{Type: recRunFinish, ID: "s1.v1", At: 15, State: StateCancelled})}},
		{"legacy version then run records", []step{ok(create), ok(verSubmit), ok(vrStart),
			ok(walRecord{Type: recRunPoint, ID: "s1.v1", Point: point(0)}), ok(verDone), no(vrDone)}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reopen := func(ds *DurableStore, kill bool) (*DurableStore, *persistState) {
				if ds != nil {
					if kill {
						ds.freeze()
					}
					if err := ds.Close(); err != nil {
						t.Fatal(err)
					}
				}
				ds, recovered, err := OpenDurableStore(dir, nil, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return ds, recovered
			}
			bare := newPersistState()
			ds, _ := reopen(nil, false)
			for i, s := range tc.steps {
				if s.crash {
					ds, _ = reopen(ds, true)
				}
				rec := s.rec
				before := mustJSON(t, bare)
				if got := bare.apply(&rec); got != s.legal {
					t.Fatalf("step %d (%s): applied = %v, want %v", i, rec.Type, got, s.legal)
				}
				if !s.legal && !bytes.Equal(before, mustJSON(t, bare)) {
					t.Fatalf("step %d (%s): rejected record changed the state", i, rec.Type)
				}
				journaled := ds.JournalRecords()
				ds.record(&rec)
				if got := ds.JournalRecords() - journaled; (got == 1) != s.legal || got > 1 {
					t.Fatalf("step %d (%s): journaled %d records, legal = %v", i, rec.Type, got, s.legal)
				}
			}
			want := mustJSON(t, bare)
			ds, replayed := reopen(ds, true)
			if got := mustJSON(t, replayed); !bytes.Equal(got, want) {
				t.Fatalf("journal replay diverged:\n got  %s\n want %s", got, want)
			}
			ds, snapshotted := reopen(ds, false)
			defer ds.Close()
			if got := mustJSON(t, snapshotted); !bytes.Equal(got, want) {
				t.Fatalf("snapshot restore diverged:\n got  %s\n want %s", got, want)
			}
		})
	}
}

// recordJournal journals a run's and a session version's lifecycle
// through a DurableStore in a fresh state directory and closes it. It
// returns the directory, the journal's bytes, where each record's frame
// ends, and the state each prefix of the records reduces to (prefix[k]
// after the first k).
func recordJournal(t *testing.T) (dir string, wal []byte, ends []int64, prefix [][]byte) {
	t.Helper()
	spec := &RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", Policy: "eps-greedy:0.1", K: 8, Seed: 1}
	records := []walRecord{
		{Type: recRunSubmit, ID: "r1", Num: 1, At: 10, Spec: spec},
		{Type: recRunStart, ID: "r1", At: 20},
		{Type: recRunPoint, ID: "r1", Point: &core.CurvePoint{Inputs: 10, Quality: 0.25}},
		{Type: recSessCreate, ID: "s1", Num: 1, At: 30, Session: &SessionSpec{Corpus: "imgs", Task: "image", K: 8}},
		{Type: recRunSubmit, ID: "s1.v1", At: 31, Spec: spec, Ver: 1, Recipe: &recipe.Spec{Name: "rec"}},
		{Type: recRunFinish, ID: "r1", At: 40, State: StateDone, Summary: &runSummary{InputsProcessed: 10, FinalQuality: 0.25}},
	}
	dir = t.TempDir()
	ds, _, err := OpenDurableStore(dir, nil, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	bare := newPersistState()
	prefix = [][]byte{mustJSON(t, bare)}
	for i := range records {
		if !bare.apply(&records[i]) {
			t.Fatalf("record %d does not apply", i)
		}
		ds.record(&records[i])
		prefix = append(prefix, mustJSON(t, bare))
		ends = append(ends, ds.JournalBytes())
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err = os.ReadFile(filepath.Join(dir, "runs.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return dir, wal, ends, prefix
}

// TestJournalEveryCrashAndFlip damages one recorded runs.wal every way a
// byte can go wrong and reopens it through OpenDurableStore. Cut at every
// offset — every point a crash can stop a write at — it opens and reduces
// to the state of the records wholly before the cut. With any one byte
// flipped, it either fails with runstore.ErrCorrupt and leaves the file
// byte-identical, or — when the flip lands in the last record, or sends a
// length field past the end of the file — reduces to the records before
// the damaged one; a flip in the magic fails the open and leaves the file
// alone. No damage ever yields a record that was not appended.
func TestJournalEveryCrashAndFlip(t *testing.T) {
	dir, wal, ends, prefix := recordJournal(t)
	path := filepath.Join(dir, "runs.wal")
	open := func(data []byte) ([]byte, error) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ds, st, err := OpenDurableStore(dir, nil, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		ds.Close()
		return mustJSON(t, st), nil
	}

	for cut := 0; cut <= len(wal); cut++ {
		got, err := open(wal[:cut])
		want := 0
		for want < len(ends) && ends[want] <= int64(cut) {
			want++
		}
		if err != nil || !bytes.Equal(got, prefix[want]) {
			t.Fatalf("cut at %d: err %v, state\n%s\nwant the %d-record prefix\n%s", cut, err, got, want, prefix[want])
		}
	}
	const magic = 4
	for at := range wal {
		data := bytes.Clone(wal)
		data[at] ^= 0xff
		got, err := open(data)
		if err != nil {
			after, _ := os.ReadFile(path)
			if !bytes.Equal(after, data) || (at >= magic && !errors.Is(err, runstore.ErrCorrupt)) {
				t.Fatalf("flip at %d: %v, file unchanged %v", at, err, bytes.Equal(after, data))
			}
			continue
		}
		if at < magic {
			t.Fatalf("flip at %d in the magic opened", at)
		}
		i := 0 // the damaged record
		for ends[i] <= int64(at) {
			i++
		}
		start := int64(magic)
		if i > 0 {
			start = ends[i-1]
		}
		pastEOF := at < int(start)+4 && start+8+int64(binary.LittleEndian.Uint32(data[start:])) > int64(len(data))
		if !bytes.Equal(got, prefix[i]) || (i != len(ends)-1 && !pastEOF) {
			t.Fatalf("flip at %d (record %d) opened to\n%s\nwant ErrCorrupt", at, i, got)
		}
	}
}

// TestRottedJournalFailsNew: a server over a state directory whose
// journal rotted before its last record refuses to start, naming the file
// and the bad record's offset, and leaves the journal byte-identical —
// starting from the records before the damage would silently drop every
// run and session after it.
func TestRottedJournalFailsNew(t *testing.T) {
	dir, wal, _, _ := recordJournal(t)
	path := filepath.Join(dir, "runs.wal")
	wal[4+4+8+1] ^= 0x01 // inside the first record's JSON
	if err := os.WriteFile(path, wal, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{StateDir: dir})
	if err == nil {
		shutdown(t, s, time.Second)
		t.Fatal("New opened a rotted journal")
	}
	if !errors.Is(err, runstore.ErrCorrupt) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "offset 4") {
		t.Fatalf("New = %v, want ErrCorrupt naming %s at offset 4", err, path)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, wal) {
		t.Fatalf("refused journal changed: %d bytes → %d (%v)", len(wal), len(after), err)
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzRestoreState feeds arbitrary snapshot bodies and journal payloads
// (newline-separated) through the load path OpenDurableStore runs —
// snapshot decode with the legacy version lists moved into runs, then
// every record replayed, version-* records through the legacy translation
// — and requires that it never panics and that the state it loads is a
// fixed point of encode → decode → encode. Seeds: both fixture
// directories, and a snapshot and journal in the current format.
func FuzzRestoreState(f *testing.F) {
	for _, fixture := range fixtures {
		snapshot, journal := readState(f, copyFixture(f, fixture))
		f.Add(snapshot, bytes.Join(journal, []byte("\n")))
	}
	spec := &RunSpec{Corpus: "imgs", Task: "image", Mode: "zombie", Policy: "eps-greedy:0.1", K: 8, Seed: 1}
	records := []walRecord{
		{Type: recSessCreate, ID: "s1", Num: 1, At: 10, Session: &SessionSpec{Corpus: "imgs", Task: "image", K: 8}},
		{Type: recRunSubmit, ID: "s1.v1", At: 11, Spec: spec, Ver: 1, Recipe: &recipe.Spec{Name: "rec", Parts: []recipe.Part{{Name: "a", Kind: "image"}}}},
		{Type: recRunStart, ID: "s1.v1", At: 12},
		{Type: recRunPoint, ID: "s1.v1", Point: &core.CurvePoint{Inputs: 10, Quality: 0.5}},
		{Type: recRunFinish, ID: "s1.v1", At: 13, State: StateDone, Summary: &runSummary{InputsProcessed: 10, Stop: "budget",
			Arms: []bandit.ArmSnapshot{{Arm: 1, Pulls: 4, Mean: 0.25}}, Diff: &recipe.Diff{Added: []string{"a"}, TotalParts: 1},
			WarmStart: &recipe.WarmStartStats{Decay: 0.5}}},
		{Type: recRunSubmit, ID: "r1", Num: 1, At: 14, Spec: spec},
		{Type: recRunStart, ID: "r1", At: 15},
	}
	st := newPersistState()
	var journal [][]byte
	for i := range records {
		st.apply(&records[i])
		journal = append(journal, mustJSON(f, &records[i]))
	}
	f.Add(mustJSON(f, st), bytes.Join(journal[len(journal)-2:], []byte("\n")))
	f.Add([]byte(nil), bytes.Join(journal, []byte("\n")))

	f.Fuzz(func(t *testing.T, snapshot, journal []byte) {
		st := newPersistState()
		if len(snapshot) > 0 && st.restore(snapshot) != nil {
			return // OpenDurableStore refuses a corrupt snapshot
		}
		for _, payload := range bytes.Split(journal, []byte("\n")) {
			if st.replay(payload) != nil {
				return // and an undecodable journal record
			}
		}
		once := mustJSON(t, st)
		again := newPersistState()
		if err := again.restore(once); err != nil {
			t.Fatalf("loaded state does not decode: %v\n%s", err, once)
		}
		if twice := mustJSON(t, again); !bytes.Equal(once, twice) {
			t.Fatalf("encode → decode → encode is not a fixed point:\n once  %s\n twice %s", once, twice)
		}
	})
}
