package runstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// stateMachine is a toy reducer: snapshot = comma-joined history, entry =
// one item appended. It stands in for the server's persistState.
type stateMachine struct {
	items []string
}

func (m *stateMachine) snapshot(state []byte) error {
	if len(state) == 0 {
		return nil
	}
	m.items = strings.Split(string(state), ",")
	return nil
}

func (m *stateMachine) entry(payload []byte) error {
	m.items = append(m.items, string(payload))
	return nil
}

func openMachine(t *testing.T, dir string) (*stateMachine, *Store) {
	t.Helper()
	m := &stateMachine{}
	s, err := Open(dir, m.snapshot, m.entry)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return m, s
}

func TestStoreJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	_, s := openMachine(t, dir)
	for _, v := range []string{"a", "b", "c"} {
		if err := s.Append([]byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	m2, s2 := openMachine(t, dir)
	defer s2.Close()
	if got := strings.Join(m2.items, ","); got != "a,b,c" {
		t.Fatalf("recovered %q, want a,b,c", got)
	}
	if s2.seq != 3 {
		t.Fatalf("Seq = %d, want 3", s2.seq)
	}
}

// appendEntries journals each entry through a store over dir, then
// closes it.
func appendEntries(t *testing.T, dir string, entries ...string) {
	t.Helper()
	_, s := openMachine(t, dir)
	for _, v := range entries {
		if err := s.Append([]byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
}

// writeLegacySnapshot writes dir's state.snap in the ZRS1 layout older
// stores wrote: state as covering every entry up to lastSeq. With reset
// it also truncates the journal to its header, as such a store did right
// after the rename.
func writeLegacySnapshot(t *testing.T, dir string, lastSeq uint64, state string, reset bool) {
	t.Helper()
	body := binary.LittleEndian.AppendUint64(nil, lastSeq)
	body = append(body, state...)
	out := append(slices.Clone(snapMagic), body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(body))
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), out, 0o644); err != nil {
		t.Fatal(err)
	}
	if reset {
		if err := os.Truncate(filepath.Join(dir, journalFile), int64(len(walMagic))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreSnapshotPlusJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	appendEntries(t, dir, "a", "b")
	writeLegacySnapshot(t, dir, 2, "a,b", true)
	_, s := openMachine(t, dir)
	if s.JournalRecords() != 0 {
		t.Fatalf("journal holds %d records after snapshot, want 0", s.JournalRecords())
	}
	if err := s.Append([]byte("c")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	m2, s2 := openMachine(t, dir)
	defer s2.Close()
	if got := strings.Join(m2.items, ","); got != "a,b,c" {
		t.Fatalf("recovered %q, want a,b,c", got)
	}
	// Sequence numbers continue past the snapshot across restarts.
	if s2.seq != 3 {
		t.Fatalf("Seq = %d, want 3", s2.seq)
	}
	if err := s2.Append([]byte("d")); err != nil {
		t.Fatal(err)
	}
	if s2.seq != 4 {
		t.Fatalf("Seq after append = %d, want 4", s2.seq)
	}
}

// TestStoreCrashBetweenRenameAndReset covers the one window where an
// older store's snapshot and journal could disagree: the new snapshot
// was installed but the process died before the journal reset. Recovery
// must skip the journal entries the snapshot already covers — applying
// them twice would double history.
func TestStoreCrashBetweenRenameAndReset(t *testing.T) {
	dir := t.TempDir()
	appendEntries(t, dir, "a", "b")
	writeLegacySnapshot(t, dir, 2, "a,b", false)

	m2, s2 := openMachine(t, dir)
	defer s2.Close()
	if got := strings.Join(m2.items, ","); got != "a,b" {
		t.Fatalf("recovered %q, want a,b (no double-apply)", got)
	}
	if s2.seq != 2 {
		t.Fatalf("Seq = %d, want 2", s2.seq)
	}
}

// TestStoreReplayEquivalence drives the same entry sequence into two
// directories — one where an older store snapshotted mid-stream, one
// journal-only — and asserts both recover to identical state.
func TestStoreReplayEquivalence(t *testing.T) {
	entries := []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7"}
	snapAt := 4

	dirSnap, dirPlain := t.TempDir(), t.TempDir()
	appendEntries(t, dirSnap, entries[:snapAt+1]...)
	writeLegacySnapshot(t, dirSnap, uint64(snapAt+1), strings.Join(entries[:snapAt+1], ","), true)
	appendEntries(t, dirSnap, entries[snapAt+1:]...)
	appendEntries(t, dirPlain, entries...)

	m1, s1 := openMachine(t, dirSnap)
	defer s1.Close()
	m2, s2 := openMachine(t, dirPlain)
	defer s2.Close()
	if a, b := strings.Join(m1.items, ","), strings.Join(m2.items, ","); a != b {
		t.Fatalf("snapshot+journal state %q != journal-only state %q", a, b)
	}
	if s1.seq != s2.seq {
		t.Fatalf("Seq diverged: %d vs %d", s1.seq, s2.seq)
	}
}

func TestStoreCorruptSnapshotIsFatal(t *testing.T) {
	dir := t.TempDir()
	appendEntries(t, dir, "a")
	writeLegacySnapshot(t, dir, 1, "a", true)

	path := filepath.Join(dir, snapshotFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-1] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil, nil); err == nil {
		t.Fatal("Open accepted a corrupt snapshot")
	}
}

func TestStoreSnapshotCrashMidWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	appendEntries(t, dir, "a")
	writeLegacySnapshot(t, dir, 1, "a", true)
	// A crash mid-write left a stray temp file; it must be ignored.
	if err := os.WriteFile(filepath.Join(dir, "state.snap.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2, s2 := openMachine(t, dir)
	defer s2.Close()
	if got := strings.Join(m2.items, ","); got != "a" {
		t.Fatalf("recovered %q, want a", got)
	}
}

func TestStoreEntryErrorAbortsOpen(t *testing.T) {
	dir := t.TempDir()
	_, s := openMachine(t, dir)
	if err := s.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	_, err := Open(dir, nil, func([]byte) error { return fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("Open ignored an entry replay error")
	}
}
