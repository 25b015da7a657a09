package runstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"zombie/internal/otrace"
)

// Store file names inside the state directory.
const (
	journalFile  = "runs.wal"
	snapshotFile = "state.snap"
)

// snapMagic brands the snapshot file.
var snapMagic = []byte("ZRS1")

// Store is the write-ahead journal with a sequence number on every
// entry: the journal alone is the state, and recovery replays it.
//
// A state directory an older store wrote may also hold a snapshot,
// state.snap, which that store wrote in place of the entries it covered
// before truncating the journal; nothing writes one now. Its layout is
// magic [4] | body | crc32(body) u32, where body is lastSeq u64 | state.
// Recovery applies it first and then only the journal entries numbered
// after lastSeq — entries a crash between that store's rename and its
// journal reset left behind are skipped, never applied twice — and new
// entries keep numbering past it.
type Store struct {
	mu      sync.Mutex
	j       *Journal
	seq     uint64 // last sequence assigned
	snapSeq uint64 // sequence covered by a legacy snapshot, 0 without one
	tracer  *otrace.Tracer
}

// Open opens (creating if needed) the store in dir and replays state:
// snapshot, if dir holds a valid legacy snapshot, receives its payload;
// then entry receives every journal record appended after it, in order.
// Either callback may be nil. A corrupt snapshot is an error, as is a
// corrupt journal (ErrCorrupt) — recovering from what is left would
// silently lose state the damaged file held.
func Open(dir string, snapshot func(state []byte) error, entry func(payload []byte) error) (*Store, error) {
	return OpenTraced(dir, snapshot, entry, nil)
}

// OpenTraced is Open with durability spans: recovery is bracketed by one
// "runstore.recover" span (attrs: snapshot/journal bytes replayed), and
// the returned store records a "runstore.append" span per journal
// append. A nil tracer records
// nothing; tracing is observational and never alters store behavior.
func OpenTraced(dir string, snapshot func(state []byte) error, entry func(payload []byte) error, tracer *otrace.Tracer) (*Store, error) {
	ref := tracer.Start(0, "runstore.recover", otrace.String("dir", dir))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		ref.End()
		return nil, fmt.Errorf("runstore: create state dir: %w", err)
	}
	s := &Store{tracer: tracer}
	state, snapSeq, ok, err := readSnapshot(filepath.Join(dir, snapshotFile))
	if err != nil {
		ref.End()
		return nil, err
	}
	if ok {
		s.snapSeq = snapSeq
		s.seq = snapSeq
		if snapshot != nil {
			if err := snapshot(state); err != nil {
				ref.End()
				return nil, fmt.Errorf("runstore: apply snapshot: %w", err)
			}
		}
	}
	replayed := 0
	j, err := OpenJournal(filepath.Join(dir, journalFile), func(payload []byte) error {
		if len(payload) < 8 {
			return fmt.Errorf("runstore: journal entry shorter than its sequence number")
		}
		seq := binary.LittleEndian.Uint64(payload)
		if seq > s.seq {
			s.seq = seq
		}
		if seq <= s.snapSeq {
			return nil // already captured by the legacy snapshot
		}
		if entry == nil {
			return nil
		}
		replayed++
		return entry(payload[8:])
	})
	if err != nil {
		ref.End()
		return nil, err
	}
	s.j = j
	ref.End(
		otrace.Int("snapshot_bytes", int64(len(state))),
		otrace.Int("replayed", int64(replayed)))
	return s, nil
}

// readSnapshot loads and validates the snapshot file. ok is false when
// the file does not exist; a present-but-corrupt snapshot is an error.
func readSnapshot(path string) (state []byte, lastSeq uint64, ok bool, err error) {
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("runstore: read snapshot: %w", err)
	}
	if len(b) < len(snapMagic)+8+4 || string(b[:len(snapMagic)]) != string(snapMagic) {
		return nil, 0, false, fmt.Errorf("runstore: %s is not a state snapshot", path)
	}
	body := b[len(snapMagic) : len(b)-4]
	sum := binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, 0, false, fmt.Errorf("runstore: snapshot %s fails its checksum", path)
	}
	return body[8:], binary.LittleEndian.Uint64(body), true, nil
}

// Append journals one entry, assigning it the next sequence number.
func (s *Store) Append(payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref := s.tracer.Start(0, "runstore.append", otrace.Int("bytes", int64(len(payload))))
	defer ref.End()
	s.seq++
	buf := make([]byte, 0, 8+len(payload))
	buf = binary.LittleEndian.AppendUint64(buf, s.seq)
	buf = append(buf, payload...)
	if err := s.j.Append(buf); err != nil {
		s.seq-- // the entry never existed
		return err
	}
	return nil
}

// JournalBytes returns the journal file's current size.
func (s *Store) JournalBytes() int64 { return s.j.Size() }

// JournalRecords returns the number of entries in the journal.
func (s *Store) JournalRecords() int { return s.j.Records() }

// Close closes the journal. Every Append is already on disk, so there is
// nothing to flush.
func (s *Store) Close() error {
	return s.j.Close()
}
