package runstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func appendAll(t *testing.T, j *Journal, payloads ...string) {
	t.Helper()
	for _, p := range payloads {
		if err := j.Append([]byte(p)); err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
	}
}

func replayAll(t *testing.T, path string) ([]string, *Journal) {
	t.Helper()
	var got []string
	j, err := OpenJournal(path, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	return got, j
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "one", "two", "three")
	if j.Records() != 3 {
		t.Fatalf("Records = %d, want 3", j.Records())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, j2 := replayAll(t, path)
	defer j2.Close()
	if len(got) != 3 || got[0] != "one" || got[1] != "two" || got[2] != "three" {
		t.Fatalf("replay = %v, want [one two three]", got)
	}
	// Appending after a replayed open continues the stream.
	appendAll(t, j2, "four")
	j2.Close()
	got, j3 := replayAll(t, path)
	defer j3.Close()
	if len(got) != 4 || got[3] != "four" {
		t.Fatalf("replay after re-append = %v", got)
	}
}

// TestJournalTornTail covers every tail state a crash can leave: a short
// length prefix, a half-written payload, and a payload whose checksum
// does not match. Each must recover the good prefix and truncate the
// damage so subsequent appends land on a valid stream.
func TestJournalTornTail(t *testing.T) {
	cases := []struct {
		name string
		tear func(b []byte) []byte
	}{
		{"short length prefix", func(b []byte) []byte { return append(b, 0x09, 0x00) }},
		{"half-written payload", func(b []byte) []byte { return append(b, 0x09, 0x00, 0x00, 0x00, 'p', 'a', 'r') }},
		{"corrupt checksum", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}},
		{"trailing garbage", func(b []byte) []byte { return append(b, 0xde, 0xad, 0xbe, 0xef, 0xde, 0xad, 0xbe, 0xef, 0x01) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "t.wal")
			j, err := OpenJournal(path, nil)
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, j, "alpha", "beta")
			j.Close()

			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tear(b), 0o644); err != nil {
				t.Fatal(err)
			}

			got, j2 := replayAll(t, path)
			if tc.name == "corrupt checksum" {
				// The checksum tear damages the last record itself.
				if len(got) != 1 || got[0] != "alpha" {
					t.Fatalf("replay = %v, want [alpha]", got)
				}
			} else if len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
				t.Fatalf("replay = %v, want [alpha beta]", got)
			}
			// The tail was truncated: appending and reopening yields a clean
			// stream with the new record last.
			appendAll(t, j2, "gamma")
			j2.Close()
			got2, j3 := replayAll(t, path)
			defer j3.Close()
			if len(got2) != len(got)+1 || got2[len(got2)-1] != "gamma" {
				t.Fatalf("replay after heal = %v", got2)
			}
		})
	}
}

// TestJournalRefusesRot: one flipped byte in a record that is not the
// last is rot, not a torn write. The open fails with ErrCorrupt, names
// the file and the bad record's offset, and leaves every byte in place.
func TestJournalRefusesRot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "alpha", "beta", "gamma")
	j.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(walMagic)+4+1] ^= 0x01 // inside "alpha"
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = OpenJournal(path, nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenJournal = %v, want ErrCorrupt", err)
	}
	if msg := err.Error(); !strings.Contains(msg, path) || !strings.Contains(msg, fmt.Sprintf("offset %d", len(walMagic))) {
		t.Fatalf("error %q does not name the file and offset %d", msg, len(walMagic))
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, b) {
		t.Fatalf("refused open changed the file: %d bytes → %d (%v)", len(b), len(after), err)
	}
}

// TestJournalTornHeader: a file shorter than the magic that begins like
// it is a header write a crash cut short, and opens as an empty log.
func TestJournalTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	if err := os.WriteFile(path, walMagic[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	got, j := replayAll(t, path)
	appendAll(t, j, "a")
	j.Close()
	if len(got) != 0 {
		t.Fatalf("torn header replayed %v", got)
	}
	if got, j = replayAll(t, path); len(got) != 1 || got[0] != "a" {
		t.Fatalf("replay after torn header = %v, want [a]", got)
	}
	j.Close()
}

func TestJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.wal")
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, nil); err == nil {
		t.Fatal("OpenJournal accepted a foreign file")
	}
}

func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "a", "b")
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Records() != 0 {
		t.Fatalf("Records after Reset = %d, want 0", j.Records())
	}
	appendAll(t, j, "c")
	j.Close()
	got, j2 := replayAll(t, path)
	defer j2.Close()
	if len(got) != 1 || got[0] != "c" {
		t.Fatalf("replay after Reset = %v, want [c]", got)
	}
}

func TestJournalReplayErrorAborts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, j, "a")
	j.Close()
	_, err = OpenJournal(path, func([]byte) error { return fmt.Errorf("boom") })
	if err == nil {
		t.Fatal("OpenJournal ignored a replay error")
	}
}

func TestJournalAppendValidation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	j, err := OpenJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(nil); err == nil {
		t.Fatal("Append accepted an empty payload")
	}
}

// FuzzOpenJournal: arbitrary bytes as a journal file never panic
// OpenLog. A file that neither starts with the magic nor is a prefix of
// it is refused. A file whose frame walk, as an independent walk reads
// it, meets a bad frame before the last is refused with ErrCorrupt and
// left unchanged. Any other file replays exactly its checksum-valid
// record prefix, and ReadRecord at each replayed offset returns that
// record. An Append after that open reads back at the Size taken before
// it, and lands where an OpenJournal reopen replays the prefix plus the
// new record.
func FuzzOpenJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte(nil), walMagic...))
	f.Add([]byte("definitely not a journal"))
	path := filepath.Join(f.TempDir(), "runs.wal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		var offs []int64
		j, err := OpenLog(path, walMagic, func(off int64, p []byte) error {
			got = append(got, bytes.Clone(p))
			offs = append(offs, off)
			return nil
		})
		if !bytes.HasPrefix(data, walMagic) && !bytes.HasPrefix(walMagic, data) {
			if err == nil {
				j.Close()
				t.Fatal("OpenLog accepted a file without the journal magic")
			}
			return
		}
		want, rotted := validPrefix(data)
		if rotted {
			if err == nil {
				j.Close()
				t.Fatal("OpenLog accepted a bad frame that is not the last")
			}
			if after, rerr := os.ReadFile(path); !errors.Is(err, ErrCorrupt) || rerr != nil || !bytes.Equal(after, data) {
				t.Fatalf("refused open: err %v, file unchanged %v", err, bytes.Equal(after, data))
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		if !slices.EqualFunc(got, want, bytes.Equal) || j.Records() != len(want) {
			j.Close()
			t.Fatalf("replayed %d records (Records %d), want the %d-record valid prefix", len(got), j.Records(), len(want))
		}
		for i, off := range offs {
			if p, err := j.ReadRecord(off); err != nil || !bytes.Equal(p, got[i]) {
				j.Close()
				t.Fatalf("ReadRecord(%d) = %q, %v; replay gave %q", off, p, err, got[i])
			}
		}
		appended := []byte("appended after a fuzzed open")
		off := j.Size()
		if err := j.Append(appended); err != nil {
			t.Fatal(err)
		}
		if p, err := j.ReadRecord(off); err != nil || !bytes.Equal(p, appended) {
			j.Close()
			t.Fatalf("ReadRecord(%d) after Append = %q, %v", off, p, err)
		}
		j.Close()
		got = nil
		j, err = OpenJournal(path, func(p []byte) error {
			got = append(got, bytes.Clone(p))
			return nil
		})
		if err != nil {
			t.Fatalf("reopen after Append: %v", err)
		}
		j.Close()
		if want = append(want, appended); !slices.EqualFunc(got, want, bytes.Equal) {
			t.Fatalf("reopen replayed %d records, want the %d-record prefix plus the appended one", len(got), len(want)-1)
		}
	})
}

// validPrefix walks a journal's frames after the magic and returns the
// payloads up to the first frame that is short, out of range or fails its
// checksum, and whether that frame is rot: one that ends before the end
// of the data, where a torn last frame runs to it or past it.
func validPrefix(data []byte) (out [][]byte, rotted bool) {
	rest := data[min(len(data), len(walMagic)):]
	for len(rest) > 0 {
		if len(rest) < 4 {
			return out, false
		}
		n := uint64(binary.LittleEndian.Uint32(rest))
		if uint64(len(rest)) < 4+n+4 {
			return out, false
		}
		payload := rest[4 : 4+n]
		if n == 0 || n > maxRecordBytes || crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
			return out, uint64(len(rest)) > 4+n+4
		}
		out = append(out, payload)
		rest = rest[4+n+4:]
	}
	return out, false
}
