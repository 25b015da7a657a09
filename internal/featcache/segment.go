package featcache

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"zombie/internal/runstore"
)

// segmentFile is the segment's record log inside the cache directory.
// Files an older layout left there (cache.seg and its sidecar) are
// ignored, so such a directory opens cold.
const segmentFile = "cache.log"

// logMagic brands the log so a directory pointed at something else fails
// loudly instead of being silently truncated to zero.
var logMagic = []byte("ZFC2")

// rec locates one key's record in the log.
type rec struct {
	off  int64 // record offset, as runstore.Journal.ReadRecord takes it
	size int64 // key + value bytes
}

// Segment is the disk-backed half of the cache: a key index over one
// runstore record log. The log owns framing, checksums and crash
// recovery (a torn last record is truncated on open, and a log with a bad
// record before its last is refused as corrupt, which the segment answers
// by starting the log over); the segment owns only its payload,
//
//	klen u32 | key | value
//
// and the in-memory key → offset index that Open rebuilds by replaying
// the log. A later record for the same key supersedes earlier ones (last
// write wins), which keeps Append free of any read-modify-write cycle.
type Segment struct {
	mu    sync.Mutex
	log   *runstore.Journal
	index map[string]rec
	bytes int64 // sum of live key+value payload bytes
	// rotted is set when Open found the log corrupt and started it over
	// empty; the cache counts it as one disk error.
	rotted bool
}

// OpenSegment opens (creating if needed) the segment store in dir. A log
// that is corrupt (runstore.ErrCorrupt) is dropped and the segment opens
// cold: its values are recomputed on demand. A foreign file still fails
// the open.
func OpenSegment(dir string) (*Segment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("featcache: create cache dir: %w", err)
	}
	path := filepath.Join(dir, segmentFile)
	s, err := openSegmentLog(path)
	if errors.Is(err, runstore.ErrCorrupt) {
		if err = os.Remove(path); err == nil {
			s, err = openSegmentLog(path)
		}
		if err == nil {
			s.rotted = true
		}
	}
	if err != nil {
		return nil, fmt.Errorf("featcache: open segment: %w", err)
	}
	return s, nil
}

// openSegmentLog opens the log at path and indexes it by replay.
func openSegmentLog(path string) (*Segment, error) {
	s := &Segment{index: map[string]rec{}}
	log, err := runstore.OpenLog(path, logMagic, func(off int64, p []byte) error {
		key, val, err := splitRecord(p)
		if err != nil {
			return err
		}
		s.put(key, rec{off: off, size: int64(len(key) + len(val))})
		return nil
	})
	s.log = log
	return s, err
}

// splitRecord parses one log payload into its key and value.
func splitRecord(p []byte) (key string, val []byte, err error) {
	if len(p) < 4 {
		return "", nil, fmt.Errorf("featcache: segment record of %d bytes", len(p))
	}
	klen := uint64(binary.LittleEndian.Uint32(p))
	if klen == 0 || klen > uint64(len(p)-4) {
		return "", nil, fmt.Errorf("featcache: segment record key length %d out of range", klen)
	}
	return string(p[4 : 4+klen]), p[4+klen:], nil
}

// put indexes key at r, replacing any earlier record for it.
func (s *Segment) put(key string, r rec) {
	s.bytes += r.size - s.index[key].size
	s.index[key] = r
}

// Get returns the stored value for key, if present, and the offset of the
// record it read (for Drop). The log verifies the record's checksum on
// every read, so a value that rotted on disk is an error, never data.
func (s *Segment) Get(key string) (val []byte, off int64, ok bool, err error) {
	s.mu.Lock()
	r, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, 0, false, nil
	}
	p, err := s.log.ReadRecord(r.off)
	if err != nil {
		return nil, r.off, false, fmt.Errorf("featcache: %w", err)
	}
	// An Invalidate racing this read can put another key's record at the
	// same offset.
	k, val, err := splitRecord(p)
	if err != nil || k != key {
		return nil, r.off, false, fmt.Errorf("featcache: segment record at %d does not hold its key", r.off)
	}
	return val, r.off, true, nil
}

// Drop forgets key's record at off — one that failed its read or its
// decode — so the next Append of key writes a fresh record. An index
// entry that no longer points at off (a later Append or an Invalidate
// replaced it) is left alone. The bad record stays in the log, unindexed.
func (s *Segment) Drop(key string, off int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.index[key]; ok && r.off == off {
		delete(s.index, key)
		s.bytes -= r.size
	}
}

// Append durably records key=val as one log record. A key the index
// already holds is skipped: values are content-addressed and immutable.
func (s *Segment) Append(key string, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("featcache: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return nil
	}
	buf := make([]byte, 0, 4+len(key)+len(val))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	off := s.log.Size()
	if err := s.log.Append(buf); err != nil {
		return fmt.Errorf("featcache: append segment record: %w", err)
	}
	s.put(key, rec{off: off, size: int64(len(key) + len(val))})
	return nil
}

// Len returns the number of stored records.
func (s *Segment) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the live payload bytes (keys + values).
func (s *Segment) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// Invalidate drops every record: the log is reset to its header.
func (s *Segment) Invalidate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.log.Reset(); err != nil {
		return fmt.Errorf("featcache: invalidate segment: %w", err)
	}
	s.index = map[string]rec{}
	s.bytes = 0
	return nil
}

// Close closes the log. Every Append is already on disk, and the next
// Open rebuilds the index by replay.
func (s *Segment) Close() error {
	return s.log.Close()
}
