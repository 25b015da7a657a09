// Package runstore is the durable half of the control plane: a
// write-ahead journal plus point-in-time snapshots that let the serving
// layer's run and session state survive a crash. The package is
// deliberately payload-agnostic — callers journal opaque byte records
// and interpret them at recovery — so the same store serves run
// lifecycle transitions and session version history alike.
//
// The journal is also the repo's one append-only record log:
// internal/featcache's disk segments run on it through OpenLog and
// ReadRecord. Records are never rewritten, so a crash can only damage a
// log's tail, which opening truncates after the last checksum-valid one.
package runstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// walMagic brands the journal file so a path pointed at something else
// fails loudly instead of being silently truncated to nothing.
var walMagic = []byte("ZWJ1")

// maxRecordBytes bounds a single journal record. Lifecycle records are
// hundreds of bytes; anything past this is corruption, not data.
const maxRecordBytes = 1 << 26

// errBadFrame marks bytes that are not a complete, checksum-valid record.
var errBadFrame = errors.New("no checksum-valid record")

// Journal is an append-only log of opaque records.
//
// Frame layout (all little-endian), after the 4-byte file magic:
//
//	per record: plen u32 | payload | crc32(payload) u32
//
// Append builds the frame in one buffer and writes it with a single
// WriteAt at the validated end of the file, so a crash mid-write leaves
// at most one torn record — exactly what the recovery scan truncates.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	magic   []byte
	size    int64 // bytes of validated data (including magic)
	records int
}

// OpenJournal opens (creating if needed) the run journal at path and
// replays every complete record through replay (nil skips the replay)
// in append order; it is OpenLog under the journal's own magic.
func OpenJournal(path string, replay func(payload []byte) error) (*Journal, error) {
	return OpenLog(path, walMagic, func(_ int64, payload []byte) error {
		if replay == nil {
			return nil
		}
		return replay(payload)
	})
}

// OpenLog opens (creating if needed) the log at path, branded with
// magic, and replays every complete record through replay in append
// order, passing the offset ReadRecord reads it back at. A file without
// the magic is refused, never truncated; a torn or corrupt tail — the
// only damage a crash can inflict on an append-only file — is truncated.
// A replay error aborts the open: the caller's state machine could not
// apply history, and appending past the failure would corrupt it further.
func OpenLog(path string, magic []byte, replay func(off int64, payload []byte) error) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: open log: %w", err)
	}
	j := &Journal{f: f, path: path, magic: magic}
	if err := j.load(replay); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// load validates the header and scans the record stream, truncating a
// torn tail back to the last complete record.
func (j *Journal) load(replay func(int64, []byte) error) error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("runstore: stat log: %w", err)
	}
	if st.Size() == 0 {
		if _, err := j.f.Write(j.magic); err != nil {
			return fmt.Errorf("runstore: write log header: %w", err)
		}
		j.size = int64(len(j.magic))
		return nil
	}
	header := make([]byte, len(j.magic))
	if _, err := j.f.ReadAt(header, 0); err != nil || string(header) != string(j.magic) {
		return fmt.Errorf("runstore: %s is not a %q log", j.path, j.magic)
	}
	good := int64(len(j.magic))
	for {
		payload, err := readFrame(j.f, good, st.Size())
		if err != nil {
			break
		}
		if err := replay(good, payload); err != nil {
			return fmt.Errorf("runstore: replay log record %d: %w", j.records, err)
		}
		j.records++
		good += 4 + int64(len(payload)) + 4
	}
	j.size = good
	if good < st.Size() {
		if err := j.f.Truncate(good); err != nil {
			return fmt.Errorf("runstore: truncate torn tail: %w", err)
		}
	}
	return nil
}

// readFrame decodes the record whose frame starts at off and ends within
// the file's first limit bytes, verifying its checksum.
func readFrame(f *os.File, off, limit int64) ([]byte, error) {
	var lenBuf [4]byte
	if off < 0 || off+4 > limit {
		return nil, errBadFrame
	}
	if _, err := f.ReadAt(lenBuf[:], off); err != nil {
		return nil, err
	}
	plen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	if plen == 0 || plen > maxRecordBytes || off+4+plen+4 > limit {
		return nil, errBadFrame
	}
	body := make([]byte, plen+4)
	if _, err := f.ReadAt(body, off+4); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(body[:plen]) != binary.LittleEndian.Uint32(body[plen:]) {
		return nil, errBadFrame
	}
	return body[:plen], nil
}

// ReadRecord returns the payload of the record at off: an offset replay
// reported, or the Size taken just before the record's Append. The
// checksum is verified on every read, so bytes that rotted on disk after
// the open come back as an error, never as data.
func (j *Journal) ReadRecord(off int64) ([]byte, error) {
	j.mu.Lock()
	f, size := j.f, j.size
	j.mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("runstore: journal is closed")
	}
	payload, err := readFrame(f, off, size)
	if err != nil {
		return nil, fmt.Errorf("runstore: read record at %d: %w", off, err)
	}
	return payload, nil
}

// Append durably records one payload. Durability here means "survives a
// process crash": the write lands in the kernel before Append returns,
// so only power loss — out of scope for this store — can lose it.
func (j *Journal) Append(payload []byte) error {
	if len(payload) == 0 || len(payload) > maxRecordBytes {
		return fmt.Errorf("runstore: journal payload length %d out of range", len(payload))
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("runstore: journal is closed")
	}
	buf := make([]byte, 0, 4+len(payload)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	if _, err := j.f.WriteAt(buf, j.size); err != nil {
		return fmt.Errorf("runstore: append journal record: %w", err)
	}
	j.size += int64(len(buf))
	j.records++
	return nil
}

// Reset discards every record, truncating the file back to its header.
// The store calls it after a snapshot has captured the journaled state.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("runstore: journal is closed")
	}
	if err := j.f.Truncate(int64(len(j.magic))); err != nil {
		return fmt.Errorf("runstore: reset journal: %w", err)
	}
	j.size = int64(len(j.magic))
	j.records = 0
	return nil
}

// Size returns the journal file's validated size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Records returns the number of records currently in the journal.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close closes the journal file. The journal needs no close-time flush:
// every Append is already on disk.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
