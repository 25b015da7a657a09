package runstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
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
// OpenLog. A file without the magic is refused; any other file replays
// exactly its checksum-valid record prefix, as an independent frame walk
// reads it, and ReadRecord at each replayed offset returns that record.
// An Append after that open reads back at the Size taken before it, and
// lands where an OpenJournal reopen replays the prefix plus the new
// record.
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
		if len(data) > 0 && !bytes.HasPrefix(data, walMagic) {
			if err == nil {
				j.Close()
				t.Fatal("OpenLog accepted a file without the journal magic")
			}
			return
		}
		if err != nil {
			t.Fatalf("OpenLog: %v", err)
		}
		want := validPrefix(data)
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
// checksum.
func validPrefix(data []byte) [][]byte {
	var out [][]byte
	rest := data[min(len(data), len(walMagic)):]
	for len(rest) >= 4 {
		n := uint64(binary.LittleEndian.Uint32(rest))
		if n == 0 || n > maxRecordBytes || uint64(len(rest)) < 4+n+4 {
			break
		}
		payload := rest[4 : 4+n]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[4+n:]) {
			break
		}
		out = append(out, payload)
		rest = rest[4+n+4:]
	}
	return out
}
