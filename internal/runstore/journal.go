// Package runstore is the durable half of the control plane: a
// write-ahead journal plus point-in-time snapshots that let the serving
// layer's run and session state survive a crash. The package is
// deliberately payload-agnostic — callers journal opaque byte records
// and interpret them at recovery — so the same store serves run
// lifecycle transitions and session version history alike.
//
// The journal is also the repo's one append-only record log:
// internal/featcache's disk segments run on it through OpenLog and
// ReadRecord. Records are never rewritten, so a crash can only tear a
// log's last record, which opening truncates. A bad record anywhere
// else is rot, not a crash: opening refuses the file with ErrCorrupt and
// leaves it as it found it.
package runstore

import (
	"bytes"
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

// ErrCorrupt is wrapped by the error an open returns for a log that holds
// a bad record before its last one: bytes that changed after they were
// written, which no crash of an append-only writer leaves behind.
var ErrCorrupt = errors.New("runstore: log is corrupt")

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
// the magic is refused, never truncated. A torn last record — the only
// damage a crash can inflict on an append-only file: one whose declared
// end passes the end of the file, or one that fails its checksum and
// ends exactly there — is truncated. Any other bad record fails the open
// with an error wrapping ErrCorrupt, and the file is left unchanged.
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
// torn last record and refusing a bad one anywhere before it. A file
// shorter than the magic that begins like it is a torn header write, and
// starts over as an empty log.
func (j *Journal) load(replay func(int64, []byte) error) error {
	st, err := j.f.Stat()
	if err != nil {
		return fmt.Errorf("runstore: stat log: %w", err)
	}
	size := st.Size()
	header := make([]byte, min(size, int64(len(j.magic))))
	if _, err := j.f.ReadAt(header, 0); err != nil || !bytes.HasPrefix(j.magic, header) {
		return fmt.Errorf("runstore: %s is not a %q log", j.path, j.magic)
	}
	j.size = int64(len(j.magic))
	if len(header) < len(j.magic) {
		if _, err := j.f.WriteAt(j.magic, 0); err != nil {
			return fmt.Errorf("runstore: write log header: %w", err)
		}
		return nil
	}
	for j.size < size {
		payload, end, err := readFrame(j.f, j.size, size)
		if errors.Is(err, errBadFrame) {
			if end < size {
				return fmt.Errorf("%w: %s: record %d at offset %d is bad and is not the last", ErrCorrupt, j.path, j.records, j.size)
			}
			if err := j.f.Truncate(j.size); err != nil {
				return fmt.Errorf("runstore: truncate torn tail: %w", err)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("runstore: read log: %w", err)
		}
		if err := replay(j.size, payload); err != nil {
			return fmt.Errorf("runstore: replay log record %d: %w", j.records, err)
		}
		j.records++
		j.size = end
	}
	return nil
}

// readFrame decodes the record whose frame starts at off and ends within
// the file's first limit bytes, verifying its checksum. end is where the
// frame says it ends, valid or not: past limit when even its length
// prefix is cut short.
func readFrame(f *os.File, off, limit int64) (payload []byte, end int64, err error) {
	var lenBuf [4]byte
	if off < 0 || off+4 > limit {
		return nil, off + 4, errBadFrame
	}
	if _, err := f.ReadAt(lenBuf[:], off); err != nil {
		return nil, off + 4, err
	}
	plen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	end = off + 4 + plen + 4
	if plen == 0 || plen > maxRecordBytes || end > limit {
		return nil, end, errBadFrame
	}
	body := make([]byte, plen+4)
	if _, err := f.ReadAt(body, off+4); err != nil {
		return nil, end, err
	}
	if crc32.ChecksumIEEE(body[:plen]) != binary.LittleEndian.Uint32(body[plen:]) {
		return nil, end, errBadFrame
	}
	return body[:plen], end, nil
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
	payload, _, err := readFrame(f, off, size)
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
