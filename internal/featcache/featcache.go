// Package featcache is a content-addressed cache for feature-extraction
// results, keyed by (feature-version fingerprint, input ID). Feature code
// is deterministic and side-effect free by contract (featurepipe.
// FeatureFunc), so a cached result is indistinguishable from a fresh
// extraction — the cache changes wall-clock time and nothing else. The
// engineer's inner loop re-runs largely unchanged feature code over
// largely the same inputs; memoizing extraction attacks the same
// wall-clock the paper's input selection does, from the orthogonal
// direction.
//
// The cache is two layers:
//
//   - a sharded in-memory LRU with per-key singleflight, so concurrent
//     runs (the server's worker pool) never duplicate an extraction and
//     never block behind one global lock, and
//   - an optional disk-backed segment store (see Segment), a key index
//     over one append-only runstore record log, so cache contents survive
//     process restarts across an engineering session's iterations.
//
// Values cross the disk boundary through a Codec supplied by the caller
// (featurepipe.ResultCodec for extraction results); in memory the decoded
// value is stored directly and shared by reference, so cached values must
// be treated as immutable by every consumer.
package featcache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"zombie/internal/fault"
	"zombie/internal/otrace"
)

// Codec converts cached values to and from their durable byte form, and
// sizes them for the in-memory byte budget. Size(v) must equal
// len(Encode(v)) for every v Encode accepts: a memory-only cache counts
// a value's bytes with Size and never encodes it, a disk-backed one
// counts the bytes it writes, and both account the same number.
type Codec interface {
	Encode(v any) ([]byte, error)
	Decode(b []byte) (any, error)
	Size(v any) int
}

// Config sizes a Cache. The zero value is usable: memory-only, 64 MiB.
type Config struct {
	// MaxBytes is the in-memory budget across all shards (default 64 MiB).
	// Eviction is LRU per shard once the shard's slice of the budget is
	// exceeded.
	MaxBytes int64
	// Dir, when non-empty, enables the disk segment store in that
	// directory. Entries evicted from memory remain on disk and reload on
	// the next request.
	Dir string
	// Faults, when non-nil, injects seeded deterministic IO failures at the
	// disk boundary (fault.SiteCacheRead and fault.SiteCacheWrite, keyed by
	// cache key). Because a failed read falls back to recomputing and a
	// failed write only skips persistence, injected cache faults change
	// cache counters and nothing else — chaos tests assert results stay
	// byte-identical to a cache-off run.
	Faults *fault.Injector
	// Tracer, when non-nil, records disk-boundary spans ("cache.disk_read",
	// "cache.disk_write", and a one-shot "cache.demote" when diskErrorLimit
	// trips). In-memory lookups are deliberately untraced here: per-lookup
	// wall time already rides the run tracer as ns.cache_lookup and the
	// per-part cost tallies, while disk IO and demotion are process-level
	// events no single run owns. Tracing is observational: hit/miss
	// behavior, eviction, and demotion are identical with a nil Tracer.
	Tracer *otrace.Tracer
}

// numShards is the number of independent LRU shards; keys are spread by
// FNV-1a hash, and each shard gets an equal share of MaxBytes (at least
// one byte).
const numShards = 16

func (c Config) withDefaults() Config {
	if c.MaxBytes <= 0 {
		c.MaxBytes = 64 << 20
	}
	return c
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	// Hits counts lookups served without running the compute function:
	// in-memory hits, disk hits, and waits coalesced onto a concurrent
	// compute. Misses counts computes actually executed.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// DiskHits is the subset of Hits served by decoding a disk record.
	DiskHits int64 `json:"disk_hits"`
	// Evictions counts entries dropped from memory by the LRU budget.
	Evictions int64 `json:"evictions"`
	// Entries/Bytes describe current in-memory residency.
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// DiskEntries/DiskBytes describe the segment store (0 when disabled).
	DiskEntries int64 `json:"disk_entries"`
	DiskBytes   int64 `json:"disk_bytes"`
	// DiskErrors counts disk IO failures the cache absorbed; DiskDemoted
	// reports whether they reached diskErrorLimit and the cache fell
	// back to memory-only.
	DiskErrors  int64 `json:"disk_errors"`
	DiskDemoted bool  `json:"disk_demoted"`
}

// memKey is the in-memory form of a cache key: the two halves Key joins,
// kept apart so a lookup builds no string.
type memKey struct{ fp, id string }

// shard picks k's shard out of n by FNV-1a over the bytes of Key(fp, id),
// hashed in place.
func (k memKey) shard(n int) int {
	const offset32, prime32 = 2166136261, 16777619
	h := uint32(offset32)
	for i := 0; i < len(k.fp); i++ {
		h = (h ^ uint32(k.fp[i])) * prime32
	}
	h = (h ^ 0x1f) * prime32
	for i := 0; i < len(k.id); i++ {
		h = (h ^ uint32(k.id[i])) * prime32
	}
	return int(h) % n
}

// entry is one resident value. size includes key and accounting overhead.
type entry struct {
	key  memKey
	val  any
	size int64
	// prev/next form the shard's intrusive LRU list.
	prev, next *entry
}

// flight is one in-progress compute; waiters block on done until the
// computing caller has set val and err.
type flight struct {
	done sync.WaitGroup
	val  any
	err  error
}

// shard is one LRU partition with its own lock and singleflight table.
type shard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	table    map[memKey]*entry
	inflight map[memKey]*flight
	// head is most-recently used; tail is the eviction candidate.
	head, tail *entry
}

// entryOverhead approximates per-entry bookkeeping bytes beyond the
// encoded payload (map cell, list pointers, key header).
const entryOverhead = 96

// diskErrorLimit is how many cumulative disk IO errors (failed segment
// reads or appends) the cache tolerates before demoting itself to
// memory-only for the rest of the process — the same one-way ladder the
// server's run journal uses. Demotion is the graceful-degradation rung
// below "disk-backed": a sick volume costs persistence and cross-process
// reuse, never an extraction.
const diskErrorLimit = 3

// Cache is the two-layer extraction cache. It is safe for concurrent use.
type Cache struct {
	codec  Codec
	shards []*shard
	disk   *Segment
	faults *fault.Injector
	tracer *otrace.Tracer

	hits      atomic.Int64
	misses    atomic.Int64
	diskHits  atomic.Int64
	evictions atomic.Int64
	diskErrs  atomic.Int64
	demoted   atomic.Bool
}

// Open builds a cache. With cfg.Dir set, the disk segment store is opened
// (or created) there and survives Close/Open cycles — a corrupt one is
// started over, counting one disk error; otherwise the cache is
// memory-only.
func Open(cfg Config, codec Codec) (*Cache, error) {
	if codec == nil {
		return nil, fmt.Errorf("featcache: codec required")
	}
	cfg = cfg.withDefaults()
	c := &Cache{
		codec:  codec,
		shards: make([]*shard, numShards),
		faults: cfg.Faults,
		tracer: cfg.Tracer,
	}
	per := cfg.MaxBytes / numShards
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			maxBytes: per,
			table:    map[memKey]*entry{},
			inflight: map[memKey]*flight{},
		}
	}
	if cfg.Dir != "" {
		seg, err := OpenSegment(cfg.Dir)
		if err != nil {
			return nil, err
		}
		c.disk = seg
		if seg.rotted {
			c.noteDiskError()
		}
	}
	return c, nil
}

// Key builds the canonical cache key for a (feature fingerprint, input ID)
// pair. The separator cannot occur in fingerprints (hex) and is vanishingly
// unlikely in IDs.
func Key(fingerprint, inputID string) string {
	return fingerprint + "\x1f" + inputID
}

// GetOrCompute returns the cached value for (fingerprint, inputID),
// computing and caching it on a miss. hit reports whether the compute
// function was avoided (memory hit, disk hit, or coalesced onto a
// concurrent compute for the same key).
//
// Errors are never cached: every waiter of a failed compute observes its
// error, and the next request retries. If compute panics, the panic
// propagates to the computing caller (so the engine's panic isolation sees
// the original value) while coalesced waiters receive an error.
func (c *Cache) GetOrCompute(fingerprint, inputID string, compute func() (any, error)) (v any, hit bool, err error) {
	k := memKey{fingerprint, inputID}
	sh := c.shards[k.shard(len(c.shards))]

	sh.mu.Lock()
	if e, ok := sh.table[k]; ok {
		sh.moveToFrontLocked(e)
		sh.mu.Unlock()
		c.hits.Add(1)
		return e.val, true, nil
	}
	if fl, ok := sh.inflight[k]; ok {
		sh.mu.Unlock()
		fl.done.Wait()
		if fl.err != nil {
			return nil, false, fl.err
		}
		c.hits.Add(1)
		return fl.val, true, nil
	}
	fl := &flight{}
	fl.done.Add(1)
	sh.inflight[k] = fl
	sh.mu.Unlock()

	finished := false
	finish := func(val any, size int64, err error) {
		finished = true
		fl.val, fl.err = val, err
		sh.mu.Lock()
		delete(sh.inflight, k)
		if err == nil {
			c.insertLocked(sh, k, val, size)
		}
		sh.mu.Unlock()
		fl.done.Done()
	}
	defer func() {
		if p := recover(); p != nil {
			if !finished {
				finish(nil, 0, fmt.Errorf("featcache: compute for %s panicked: %v", Key(fingerprint, inputID), p))
			}
			panic(p)
		}
	}()

	// Only the disk layer, which stores it, builds the string key.
	var key string
	disk := c.diskUsable()
	if disk {
		key = Key(fingerprint, inputID)
		if dv, size, ok := c.diskGet(key); ok {
			c.diskHits.Add(1)
			c.hits.Add(1)
			finish(dv, size, nil)
			return dv, true, nil
		}
	}

	val, err := compute()
	if err != nil {
		finish(nil, 0, err)
		return nil, false, err
	}
	if disk {
		b, err := c.codec.Encode(val)
		if err != nil {
			finish(nil, 0, fmt.Errorf("featcache: encode %s: %w", key, err))
			return nil, false, err
		}
		c.diskPut(key, b)
	}
	c.misses.Add(1)
	finish(val, int64(c.codec.Size(val)), nil)
	return val, false, nil
}

// diskUsable reports whether the disk layer exists and has not been
// demoted away.
func (c *Cache) diskUsable() bool {
	return c.disk != nil && !c.demoted.Load()
}

// noteDiskError counts one absorbed disk IO failure and demotes the cache
// to memory-only once diskErrorLimit is reached. Demotion is one-way for
// the process lifetime: a volume that produced that many failures is
// assumed sick, and flip-flopping between layers would make cache traffic
// timing-dependent.
func (c *Cache) noteDiskError() {
	if n := c.diskErrs.Add(1); n >= diskErrorLimit {
		if c.demoted.CompareAndSwap(false, true) {
			c.tracer.Start(0, "cache.demote", otrace.Int("disk_errors", n)).End()
		}
	}
}

// fire triggers an injected fault at a cache site, flattening panics into
// errors: no cache-layer failure mode — injected or real — may escape the
// disk boundary and fail an extraction.
func (c *Cache) fire(site fault.Site, key string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("featcache: injected panic at %s: %v", site, p)
		}
	}()
	return c.faults.Fire(site, key)
}

// diskGet reads and decodes key's record from the segment store,
// absorbing failures: an injected fault or a real read error counts toward
// demotion and reports a miss, so the caller recomputes instead of failing
// the extraction. A record that fails its read, or its decode (codec
// drift), is dropped from the index, so the recompute persists a fresh
// record instead of every later read failing again. size is the record's
// value length, what the memory layer charges for it.
func (c *Cache) diskGet(key string) (v any, size int64, ok bool) {
	ref := c.tracer.Start(0, "cache.disk_read")
	if err := c.fire(fault.SiteCacheRead, key); err != nil {
		c.noteDiskError()
		ref.End(otrace.String("err", "fault"))
		return nil, 0, false
	}
	b, off, ok, err := c.disk.Get(key)
	if err != nil {
		c.noteDiskError()
		c.disk.Drop(key, off)
		ref.End(otrace.String("err", "io"))
		return nil, 0, false
	}
	ref.End(otrace.Int("bytes", int64(len(b))))
	if !ok {
		return nil, 0, false
	}
	if v, err = c.codec.Decode(b); err != nil {
		c.disk.Drop(key, off)
		return nil, 0, false
	}
	return v, int64(len(b)), true
}

// diskPut persists key=val best-effort: a full disk or an injected fault
// loses persistence, not correctness, and counts toward demotion.
func (c *Cache) diskPut(key string, val []byte) {
	if !c.diskUsable() {
		return
	}
	ref := c.tracer.Start(0, "cache.disk_write", otrace.Int("bytes", int64(len(val))))
	defer ref.End()
	if err := c.fire(fault.SiteCacheWrite, key); err != nil {
		c.noteDiskError()
		return
	}
	if err := c.disk.Append(key, val); err != nil {
		c.noteDiskError()
	}
}

// insertLocked adds the value under sh.mu and evicts LRU entries beyond
// the shard budget (never the entry just inserted).
func (c *Cache) insertLocked(sh *shard, key memKey, val any, size int64) {
	if _, ok := sh.table[key]; ok {
		return // a racing fill already inserted it
	}
	e := &entry{key: key, val: val, size: size + int64(len(key.fp)+1+len(key.id)) + entryOverhead}
	sh.table[key] = e
	sh.pushFrontLocked(e)
	sh.bytes += e.size
	for sh.bytes > sh.maxBytes && sh.tail != nil && sh.tail != e {
		victim := sh.tail
		sh.removeLocked(victim)
		delete(sh.table, victim.key)
		sh.bytes -= victim.size
		c.evictions.Add(1)
	}
}

func (sh *shard) pushFrontLocked(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) removeLocked(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFrontLocked(e *entry) {
	if sh.head == e {
		return
	}
	sh.removeLocked(e)
	sh.pushFrontLocked(e)
}

// Stats snapshots the counters. Entries/Bytes walk the shard headers (one
// short lock each); disk numbers come from the segment index.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		DiskHits:    c.diskHits.Load(),
		Evictions:   c.evictions.Load(),
		DiskErrors:  c.diskErrs.Load(),
		DiskDemoted: c.demoted.Load(),
	}
	for _, sh := range c.shards {
		sh.mu.Lock()
		st.Entries += int64(len(sh.table))
		st.Bytes += sh.bytes
		sh.mu.Unlock()
	}
	if c.disk != nil {
		st.DiskEntries = int64(c.disk.Len())
		st.DiskBytes = c.disk.Bytes()
	}
	return st
}

// Invalidate drops every cached entry, memory and disk. In-flight
// computes complete normally and re-enter the emptied cache. The counters
// are not reset: they describe lifetime traffic.
func (c *Cache) Invalidate() error {
	for _, sh := range c.shards {
		sh.mu.Lock()
		sh.table = map[memKey]*entry{}
		sh.head, sh.tail = nil, nil
		sh.bytes = 0
		sh.mu.Unlock()
	}
	if c.disk != nil {
		return c.disk.Invalidate()
	}
	return nil
}

// Close releases the segment's log. The in-memory layer needs no
// teardown.
func (c *Cache) Close() error {
	if c.disk != nil {
		return c.disk.Close()
	}
	return nil
}
