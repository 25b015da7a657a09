package featcache

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// byteCodec is the test codec: values are strings, stored verbatim.
type byteCodec struct{}

func (byteCodec) Encode(v any) ([]byte, error) {
	s, ok := v.(string)
	if !ok {
		return nil, fmt.Errorf("not a string: %T", v)
	}
	return []byte(s), nil
}

func (byteCodec) Decode(b []byte) (any, error) { return string(b), nil }

func (byteCodec) Size(v any) int { s, _ := v.(string); return len(s) }

func mustOpen(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := Open(cfg, byteCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGetOrComputeHitMiss(t *testing.T) {
	c := mustOpen(t, Config{})
	calls := 0
	compute := func() (any, error) { calls++; return "v1", nil }

	v, hit, err := c.GetOrCompute("fp", "in1", compute)
	if err != nil || hit || v != "v1" || calls != 1 {
		t.Fatalf("first call: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	v, hit, err = c.GetOrCompute("fp", "in1", compute)
	if err != nil || !hit || v != "v1" || calls != 1 {
		t.Fatalf("second call: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	// Different input and different fingerprint both miss.
	if _, hit, _ = c.GetOrCompute("fp", "in2", compute); hit {
		t.Fatal("different input should miss")
	}
	if _, hit, _ = c.GetOrCompute("fp2", "in1", compute); hit {
		t.Fatal("different fingerprint should miss")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 3 || st.Bytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := mustOpen(t, Config{})
	calls := 0
	fail := func() (any, error) { calls++; return nil, fmt.Errorf("boom %d", calls) }
	if _, _, err := c.GetOrCompute("fp", "x", fail); err == nil || err.Error() != "boom 1" {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.GetOrCompute("fp", "x", fail); err == nil || err.Error() != "boom 2" {
		t.Fatalf("second err = %v (errors must not be cached)", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 0 {
		t.Fatalf("stats after errors = %+v", st)
	}
}

func TestSingleflightCoalesces(t *testing.T) {
	c := mustOpen(t, Config{})
	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	compute := func() (any, error) {
		calls.Add(1)
		once.Do(func() { close(started) })
		<-gate
		return "shared", nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([]string, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("fp", "same", compute)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v.(string)
		}(i)
	}
	<-started
	close(gate)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if r != "shared" {
			t.Fatalf("waiter %d got %q", i, r)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != waiters-1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestComputePanicPropagatesAndUnblocksWaiters(t *testing.T) {
	c := mustOpen(t, Config{})
	entered := make(chan struct{})
	release := make(chan struct{})

	waiterErr := make(chan error, 1)
	go func() {
		<-entered
		go func() {
			// Give the waiter below time to coalesce onto the flight before
			// the compute is allowed to panic.
			time.Sleep(100 * time.Millisecond)
			close(release)
		}()
		_, _, err := c.GetOrCompute("fp", "bad", func() (any, error) {
			t.Error("waiter must coalesce, not recompute")
			return nil, nil
		})
		waiterErr <- err
	}()

	func() {
		defer func() {
			if p := recover(); p == nil {
				t.Error("panic did not propagate to the computing caller")
			} else if fmt.Sprint(p) != "kaboom" {
				t.Errorf("panic value = %v", p)
			}
		}()
		c.GetOrCompute("fp", "bad", func() (any, error) {
			close(entered)
			<-release
			panic("kaboom")
		})
	}()

	err := <-waiterErr
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("waiter err = %v", err)
	}
	// The key is retryable afterwards.
	v, hit, err := c.GetOrCompute("fp", "bad", func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry after panic: v=%v hit=%v err=%v", v, hit, err)
	}
}

func TestComputePanicBeforeWaiterArrives(t *testing.T) {
	// Same panic path without a concurrent waiter: the flight must still be
	// cleaned up so the next call recomputes instead of deadlocking.
	c := mustOpen(t, Config{})
	func() {
		defer func() { recover() }()
		c.GetOrCompute("fp", "solo", func() (any, error) { panic("x") })
	}()
	v, _, err := c.GetOrCompute("fp", "solo", func() (any, error) { return "fresh", nil })
	if err != nil || v != "fresh" {
		t.Fatalf("v=%v err=%v", v, err)
	}
}

// shardMates returns n input IDs other than id whose keys under fp land
// in id's shard.
func shardMates(fp, id string, n int) []string {
	want := memKey{fp, id}.shard(numShards)
	var ids []string
	for i := 0; len(ids) < n; i++ {
		if m := fmt.Sprintf("%s-%d", id, i); (memKey{fp, m}).shard(numShards) == want {
			ids = append(ids, m)
		}
	}
	return ids
}

func TestLRUEviction(t *testing.T) {
	// Tiny budget, keys in one shard: inserting values of ~1KB each must
	// evict the least recently used, never the newest.
	c := mustOpen(t, Config{MaxBytes: numShards * 3 * 1200})
	val := strings.Repeat("x", 1000)
	get := func(id string) bool {
		_, hit, err := c.GetOrCompute("fp", id, func() (any, error) { return val, nil })
		if err != nil {
			t.Fatal(err)
		}
		return hit
	}
	a, mates := "a", shardMates("fp", "a", 3)
	b, cc, d := mates[0], mates[1], mates[2]
	get(a)
	get(b)
	get(cc)
	if !get(a) { // refresh a
		t.Fatal("a should still be resident")
	}
	get(d) // evicts b (LRU)
	if got := c.Stats().Evictions; got == 0 {
		t.Fatalf("expected evictions, got %d", got)
	}
	if get(b) {
		t.Fatal("b should have been evicted")
	}
	if !get(a) {
		t.Fatal("recently used a should survive")
	}
}

func TestInvalidateClearsMemoryAndDisk(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Config{Dir: dir})
	c.GetOrCompute("fp", "a", func() (any, error) { return "v", nil })
	if st := c.Stats(); st.Entries != 1 || st.DiskEntries != 1 {
		t.Fatalf("before invalidate: %+v", st)
	}
	if err := c.Invalidate(); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries != 0 || st.DiskEntries != 0 || st.DiskBytes != 0 {
		t.Fatalf("after invalidate: %+v", st)
	}
	if _, hit, _ := c.GetOrCompute("fp", "a", func() (any, error) { return "v", nil }); hit {
		t.Fatal("invalidated key must recompute")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	c := mustOpen(t, Config{Dir: dir})
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("in%d", i)
		c.GetOrCompute("fp", id, func() (any, error) { return "val-" + id, nil })
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh process: memory is cold, disk is warm.
	c2 := mustOpen(t, Config{Dir: dir})
	calls := 0
	v, hit, err := c2.GetOrCompute("fp", "in7", func() (any, error) { calls++; return "recomputed", nil })
	if err != nil || !hit || v != "val-in7" || calls != 0 {
		t.Fatalf("disk reload: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.DiskEntries != 20 {
		t.Fatalf("stats = %+v", st)
	}
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsNilCodec(t *testing.T) {
	if _, err := Open(Config{}, nil); err == nil {
		t.Fatal("nil codec should fail")
	}
}
