package featcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSegmentRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Append(fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("value-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("len = %d", s.Len())
	}
	b, _, ok, err := s.Get("k3")
	if err != nil || !ok || string(b) != "value-3" {
		t.Fatalf("get: %q %v %v", b, ok, err)
	}
	if _, _, ok, _ := s.Get("missing"); ok {
		t.Fatal("missing key reported present")
	}
	// Re-appending an existing key is a no-op (content-addressed values).
	sizeBefore := s.Bytes()
	if err := s.Append("k3", []byte("different")); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != sizeBefore {
		t.Fatal("duplicate append grew the store")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentReopenReplays(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenSegment(dir)
	s.Append("alpha", []byte("1"))
	s.Append("beta", []byte("22"))
	s.Close()

	s2, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b, _, ok, _ := s2.Get("beta"); !ok || string(b) != "22" {
		t.Fatalf("reload: %q %v", b, ok)
	}
	s2.Append("gamma", []byte("333"))
	// Abandon without Close.
	s3, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"alpha": "1", "beta": "22", "gamma": "333"} {
		if b, _, ok, _ := s3.Get(k); !ok || string(b) != want {
			t.Fatalf("scan reload %s: %q %v", k, b, ok)
		}
	}
	s3.Close()
}

// TestSegmentTruncatesTornTail is the crash-tolerance contract: a segment
// whose final record was half-written (process killed mid-append) must
// reopen cleanly with every complete record intact and the torn bytes
// truncated away.
func TestSegmentTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenSegment(dir)
	for i := 0; i < 5; i++ {
		s.Append(fmt.Sprintf("key-%d", i), []byte(strings.Repeat("v", 100+i)))
	}
	s.Append("torn", []byte(strings.Repeat("T", 200)))
	s.Close()
	path := filepath.Join(dir, segmentFile)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop into the middle of the last record's value.
	if err := os.Truncate(path, st.Size()-150); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 5 {
		t.Fatalf("recovered %d records, want the 5 complete ones", s2.Len())
	}
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("key-%d", i)
		b, _, ok, err := s2.Get(k)
		if err != nil || !ok || len(b) != 100+i {
			t.Fatalf("record %s: len=%d ok=%v err=%v", k, len(b), ok, err)
		}
	}
	if _, _, ok, _ := s2.Get("torn"); ok {
		t.Fatal("torn record must not survive recovery")
	}
	// The file itself was truncated back to the last good record, so a
	// subsequent append lands on a clean tail and survives another reopen.
	if err := s2.Append("after", []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if b, _, ok, _ := s3.Get("after"); !ok || string(b) != "recovered" {
		t.Fatalf("post-recovery append lost: %q %v", b, ok)
	}
}

// TestSegmentTruncatesGarbageTail covers the other crash shape: the tail
// record is complete in length but its checksum does not match (torn
// multi-block write).
func TestSegmentTruncatesGarbageTail(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenSegment(dir)
	s.Append("good", []byte("keep-me"))
	s.Append("bad", []byte(strings.Repeat("B", 64)))
	s.Close()
	path := filepath.Join(dir, segmentFile)
	// Flip a byte inside the last record's value.
	b, _ := os.ReadFile(path)
	b[len(b)-10] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", s2.Len())
	}
	if v, _, ok, _ := s2.Get("good"); !ok || string(v) != "keep-me" {
		t.Fatalf("good record lost: %q %v", v, ok)
	}
}

func TestSegmentRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segmentFile), []byte("not a cache at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSegment(dir); err == nil {
		t.Fatal("foreign file should be rejected, not truncated")
	}
}

// TestRottedLogOpensCold: one flipped byte in the first of three records
// is rot, not a torn tail. The cache drops the log and opens cold,
// counting one disk error; the values are then recomputed and persisted
// afresh.
func TestRottedLogOpensCold(t *testing.T) {
	dir := t.TempDir()
	warm := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		if _, _, err := warm.GetOrCompute("fp", k, func() (any, error) { return "value of " + k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	warm.Close()
	path := filepath.Join(dir, segmentFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(logMagic)+4+4+len(Key("fp", "k0"))] ^= 0x01 // the first value byte
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	c := mustOpen(t, Config{Dir: dir})
	defer c.Close()
	if st := c.Stats(); st.DiskErrors != 1 || st.DiskEntries != 0 || st.DiskDemoted {
		t.Fatalf("stats = %+v, want one disk error and an empty disk store", st)
	}
	calls := 0
	for i := 0; i < 3; i++ {
		k := fmt.Sprintf("k%d", i)
		v, hit, err := c.GetOrCompute("fp", k, func() (any, error) { calls++; return "value of " + k, nil })
		if err != nil || hit || v != "value of "+k {
			t.Fatalf("%s: v=%v hit=%v err=%v", k, v, hit, err)
		}
	}
	if calls != 3 || c.Stats().DiskEntries != 3 {
		t.Fatalf("recomputed %d values, disk holds %d, want 3 and 3", calls, c.Stats().DiskEntries)
	}
}

// TestSegmentEveryCrashAndFlip damages one recorded cache.log every way a
// byte can go wrong. Cut at every offset, it opens and holds the records
// wholly before the cut. With any one byte flipped, it either opens cold
// (the log was rot) or — when the flip lands in the last record, or sends
// a length field past the end of the file — holds the records before the
// damaged one; a flip in the magic fails the open and leaves the file
// alone. A value read back is always bit-equal to the one appended.
func TestSegmentEveryCrashAndFlip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, segmentFile)
	s, err := OpenSegment(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	var vals [][]byte
	var ends []int64 // ends[i] is where record i's frame ends
	for i := 0; i < 4; i++ {
		k, v := fmt.Sprintf("key-%d", i), bytes.Repeat([]byte{byte(0x80 + i)}, 5+3*i)
		if err := s.Append(k, v); err != nil {
			t.Fatal(err)
		}
		keys, vals = append(keys, k), append(vals, v)
		ends = append(ends, s.log.Size())
	}
	s.Close()
	log, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// open writes data as the log, opens it, and returns how many records
	// it holds, after checking that they are the first ones appended.
	open := func(data []byte) (n int, rotted bool, err error) {
		t.Helper()
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenSegment(dir)
		if err != nil {
			return 0, false, err
		}
		defer s.Close()
		for n < len(keys) {
			v, _, ok, err := s.Get(keys[n])
			if err != nil || !ok {
				break
			}
			if !bytes.Equal(v, vals[n]) {
				t.Fatalf("record %d read back %x, appended %x", n, v, vals[n])
			}
			n++
		}
		if s.Len() != n {
			t.Fatalf("segment holds %d records, %d of them the first appended", s.Len(), n)
		}
		return n, s.rotted, nil
	}

	for cut := 0; cut <= len(log); cut++ {
		n, rotted, err := open(log[:cut])
		want := 0
		for want < len(ends) && ends[want] <= int64(cut) {
			want++
		}
		if err != nil || rotted || n != want {
			t.Fatalf("cut at %d: %d records (rotted %v, err %v), want %d", cut, n, rotted, err, want)
		}
	}
	for at := range log {
		data := bytes.Clone(log)
		data[at] ^= 0xff
		n, rotted, err := open(data)
		if at < len(logMagic) {
			if after, _ := os.ReadFile(path); err == nil || !bytes.Equal(after, data) {
				t.Fatalf("flip at %d in the magic: err %v, file unchanged %v", at, err, bytes.Equal(after, data))
			}
			continue
		}
		if err != nil {
			t.Fatalf("flip at %d: %v", at, err)
		}
		if rotted {
			if n != 0 {
				t.Fatalf("flip at %d: opened cold with %d records", at, n)
			}
			continue
		}
		i := 0 // the damaged record
		for ends[i] <= int64(at) {
			i++
		}
		start := int64(len(logMagic))
		if i > 0 {
			start = ends[i-1]
		}
		pastEOF := at < int(start)+4 && start+8+int64(binary.LittleEndian.Uint32(data[start:])) > int64(len(data))
		if n != i || (i != len(ends)-1 && !pastEOF) {
			t.Fatalf("flip at %d (record %d): kept %d records, want the log opened cold", at, i, n)
		}
	}
}

func TestSegmentInvalidate(t *testing.T) {
	dir := t.TempDir()
	s, _ := OpenSegment(dir)
	s.Append("a", []byte("1"))
	if err := s.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("invalidate left records")
	}
	if _, _, ok, _ := s.Get("a"); ok {
		t.Fatal("invalidated key still readable")
	}
	s.Append("b", []byte("2"))
	s.Close()
	s2, _ := OpenSegment(dir)
	defer s2.Close()
	if _, _, ok, _ := s2.Get("a"); ok {
		t.Fatal("invalidated key survived reopen")
	}
	if v, _, ok, _ := s2.Get("b"); !ok || string(v) != "2" {
		t.Fatal("post-invalidate append lost")
	}
}

// TestRottedValueIsRecomputed: a stored value whose bytes change on disk
// after Open fails its checksum on read. Get reports an error instead of
// the bytes, and GetOrCompute recomputes, counts one disk error and
// persists the recompute in a fresh record, so later reads of the key —
// after a memory eviction too — are disk hits that count no further error.
func TestRottedValueIsRecomputed(t *testing.T) {
	dir := t.TempDir()
	warm := mustOpen(t, Config{Dir: dir})
	if _, _, err := warm.GetOrCompute("fp", "k", func() (any, error) { return "stored value", nil }); err != nil {
		t.Fatal(err)
	}
	warm.Close()

	// Every shard one byte large: every insert evicts the resident entry.
	c := mustOpen(t, Config{Dir: dir, MaxBytes: 1})
	defer c.Close()
	path := filepath.Join(dir, segmentFile)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-6] ^= 0xFF // inside the value, before the record's checksum
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if v, _, ok, err := c.disk.Get(Key("fp", "k")); err == nil {
		t.Fatalf("rotted value served: %q %v", v, ok)
	}
	calls := 0
	v, hit, err := c.GetOrCompute("fp", "k", func() (any, error) { calls++; return "stored value", nil })
	if err != nil || hit || v != "stored value" || calls != 1 {
		t.Fatalf("rotted value not recomputed: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	if st := c.Stats(); st.DiskErrors != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want one disk error and no disk hit", st)
	}
	if v, _, ok, err := c.disk.Get(Key("fp", "k")); err != nil || !ok || string(v) != "stored value" {
		t.Fatalf("recompute not re-persisted: %q ok=%v err=%v", v, ok, err)
	}
	// Each read follows an insert into k's shard, which evicts k.
	for i, other := range shardMates("fp", "k", diskErrorLimit) {
		if _, _, err := c.GetOrCompute("fp", other, func() (any, error) { return other, nil }); err != nil {
			t.Fatal(err)
		}
		v, hit, err := c.GetOrCompute("fp", "k", func() (any, error) { calls++; return "stored value", nil })
		if err != nil || !hit || v != "stored value" || calls != 1 {
			t.Fatalf("read %d after eviction: v=%v hit=%v err=%v calls=%d", i, v, hit, err, calls)
		}
	}
	if st := c.Stats(); st.DiskErrors != 1 || st.DiskHits != diskErrorLimit || st.DiskDemoted {
		t.Fatalf("stats = %+v, want the one disk error, %d disk hits and no demotion", st, diskErrorLimit)
	}
}

// driftCodec is byteCodec under a format change: records holding "old"
// no longer decode.
type driftCodec struct{ byteCodec }

func (driftCodec) Decode(b []byte) (any, error) {
	if string(b) == "old" {
		return nil, fmt.Errorf("old format")
	}
	return string(b), nil
}

// TestUndecodableRecordIsReplaced: a record the codec no longer decodes
// is recomputed, without counting a disk error, and the recompute
// replaces it on disk — the next process decodes the new record.
func TestUndecodableRecordIsReplaced(t *testing.T) {
	dir := t.TempDir()
	old := mustOpen(t, Config{Dir: dir})
	if _, _, err := old.GetOrCompute("fp", "k", func() (any, error) { return "old", nil }); err != nil {
		t.Fatal(err)
	}
	old.Close()

	for pass, want := range []bool{false, true} {
		c, err := Open(Config{Dir: dir}, driftCodec{})
		if err != nil {
			t.Fatal(err)
		}
		v, hit, err := c.GetOrCompute("fp", "k", func() (any, error) { return "new", nil })
		if err != nil || hit != want || v != "new" {
			t.Fatalf("pass %d: v=%v hit=%v err=%v, want hit=%v", pass, v, hit, err, want)
		}
		if st := c.Stats(); st.DiskErrors != 0 || st.DiskEntries != 1 {
			t.Fatalf("pass %d: stats = %+v, want no disk error and one record", pass, st)
		}
		c.Close()
	}
}
