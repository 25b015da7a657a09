package featcache

import (
	"testing"

	"zombie/internal/fault"
)

func mustFaults(t *testing.T, spec string, seed int64) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestDiskFaultsNeverFailExtraction: with every disk read and write
// failing, GetOrCompute still returns correct values for every key — the
// disk layer absorbs its own failures.
func TestDiskFaultsNeverFailExtraction(t *testing.T) {
	c := mustOpen(t, Config{
		Dir:    t.TempDir(),
		Faults: mustFaults(t, "cache.read:err=1;cache.write:err=1", 5),
	})
	defer c.Close()
	for i := 0; i < 10; i++ {
		key := string(rune('a' + i))
		want := "v" + key
		v, _, err := c.GetOrCompute("fp", key, func() (any, error) { return want, nil })
		if err != nil || v != want {
			t.Fatalf("key %s: v=%v err=%v", key, v, err)
		}
	}
	st := c.Stats()
	if st.DiskErrors == 0 {
		t.Fatal("universal disk faults produced no error count")
	}
	if !st.DiskDemoted {
		t.Fatalf("cache not demoted after %d disk errors (limit default 3)", st.DiskErrors)
	}
	if st.DiskEntries != 0 {
		t.Fatalf("failed writes still persisted %d entries", st.DiskEntries)
	}
}

// TestDemotionStopsDiskTraffic: after the error limit trips, the cache is
// memory-only — the error counter freezes because the disk is no longer
// consulted, and memory hits keep working.
func TestDemotionStopsDiskTraffic(t *testing.T) {
	c := mustOpen(t, Config{
		Dir:    t.TempDir(),
		Faults: mustFaults(t, "cache.write:err=1", 5),
	})
	defer c.Close()
	for i := 0; i < 8; i++ {
		key := string(rune('a' + i))
		if _, _, err := c.GetOrCompute("fp", key, func() (any, error) { return "v", nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if !st.DiskDemoted {
		t.Fatal("limit 3 did not demote")
	}
	if st.DiskErrors != 3 {
		t.Fatalf("disk consulted after demotion: %d errors, want exactly 3", st.DiskErrors)
	}
	if v, hit, err := c.GetOrCompute("fp", "a", func() (any, error) { return "other", nil }); err != nil || !hit || v != "v" {
		t.Fatalf("memory layer broken after demotion: v=%v hit=%v err=%v", v, hit, err)
	}
}

// TestReadFaultsFallBackToRecompute: an injected read fault on a key that
// IS on disk (written before faults applied) recomputes instead of
// failing, and counts toward demotion.
func TestReadFaultsFallBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	warm := mustOpen(t, Config{Dir: dir})
	if _, _, err := warm.GetOrCompute("fp", "k", func() (any, error) { return "stored", nil }); err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}

	c := mustOpen(t, Config{Dir: dir, Faults: mustFaults(t, "cache.read:err=1", 5)})
	defer c.Close()
	calls := 0
	v, hit, err := c.GetOrCompute("fp", "k", func() (any, error) { calls++; return "stored", nil })
	if err != nil || hit || v != "stored" || calls != 1 {
		t.Fatalf("faulted read did not recompute: v=%v hit=%v err=%v calls=%d", v, hit, err, calls)
	}
	if st := c.Stats(); st.DiskErrors == 0 {
		t.Fatal("read fault not counted")
	}
}

// TestCachePanicFaultsAreFlattened: a panic-kind fault at a cache site is
// absorbed at the disk boundary like any other IO error — it must never
// escape into the extraction path.
func TestCachePanicFaultsAreFlattened(t *testing.T) {
	c := mustOpen(t, Config{
		Dir:    t.TempDir(),
		Faults: mustFaults(t, "cache.write:panic=1", 5),
	})
	defer c.Close()
	v, _, err := c.GetOrCompute("fp", "k", func() (any, error) { return "v", nil })
	if err != nil || v != "v" {
		t.Fatalf("panic fault escaped: v=%v err=%v", v, err)
	}
	if st := c.Stats(); st.DiskErrors != 1 {
		t.Fatalf("panic fault not counted as disk error: %+v", st)
	}
}

// TestHealthyDiskUnaffected: with no faults the new plumbing is inert —
// zero errors, no demotion, entries persisted.
func TestHealthyDiskUnaffected(t *testing.T) {
	c := mustOpen(t, Config{Dir: t.TempDir()})
	defer c.Close()
	if _, _, err := c.GetOrCompute("fp", "k", func() (any, error) { return "v", nil }); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.DiskErrors != 0 || st.DiskDemoted || st.DiskEntries != 1 {
		t.Fatalf("healthy disk path changed: %+v", st)
	}
}
