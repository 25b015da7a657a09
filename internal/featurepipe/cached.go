package featurepipe

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/featcache"
)

// CacheCounters tallies extraction-cache traffic for one consumer (the
// engine allocates one per run so RunResult can report per-run hit rates
// against a cache shared by many runs). Counters are atomics because the
// server executes runs concurrently against one shared cache.
type CacheCounters struct {
	Hits   atomic.Int64
	Misses atomic.Int64
	// LookupNanos accumulates pure cache overhead: wall time spent inside
	// the cache (key hashing, shard locking, disk decode, singleflight
	// waits) with the inner feature-code compute subtracted out. It is the
	// "cache-lookup" phase of the run's PhaseBreakdown — a subset of
	// extraction time, never additional to it.
	LookupNanos atomic.Int64

	// Per-part tallies, keyed by the wrapped function's Name (for a
	// composite feature that is the recipe part name — the dimension the
	// cost-attribution summary groups extraction time by). Cached resolves
	// a part's tally once, when it wraps the part; after that the part's
	// tallies are atomic adds, with no lock or map lookup per extraction.
	mu    sync.Mutex
	parts map[string]*partTally
}

type partTally struct {
	hits, misses, lookupNanos, computeNanos atomic.Int64
}

// part returns the named part's tally, creating it on first use.
func (c *CacheCounters) part(name string) *partTally {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.parts[name]
	if t == nil {
		if c.parts == nil {
			c.parts = map[string]*partTally{}
		}
		t = &partTally{}
		c.parts[name] = t
	}
	return t
}

// add records one cache-mediated extraction.
func (t *partTally) add(hit bool, lookup, compute time.Duration) {
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	if lookup > 0 {
		t.lookupNanos.Add(int64(lookup))
	}
	if compute > 0 {
		t.computeNanos.Add(int64(compute))
	}
}

// PartCost is one part's extraction-cost tally: how often the cache
// served it, the cache overhead it paid, and the feature-code compute it
// actually ran (zero on hits — that is the reuse the cache buys).
type PartCost struct {
	Part         string `json:"part"`
	Hits         int64  `json:"hits"`
	Misses       int64  `json:"misses"`
	LookupNanos  int64  `json:"lookup_ns"`
	ComputeNanos int64  `json:"compute_ns"`
}

// Parts returns the per-part cost tallies of the parts that completed at
// least one extraction, sorted by part name.
func (c *CacheCounters) Parts() []PartCost {
	c.mu.Lock()
	out := make([]PartCost, 0, len(c.parts))
	for name, t := range c.parts {
		if t.hits.Load()+t.misses.Load() == 0 {
			continue // wrapped, never extracted through
		}
		out = append(out, PartCost{
			Part:         name,
			Hits:         t.hits.Load(),
			Misses:       t.misses.Load(),
			LookupNanos:  t.lookupNanos.Load(),
			ComputeNanos: t.computeNanos.Load(),
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Part < out[j].Part })
	return out
}

// Cached wraps feature code with the extraction cache: Extract serves
// (fingerprint, input ID) pairs the cache has seen before without running
// the inner code. Because FeatureFunc contracts Extract to be
// deterministic and side-effect free, the wrapped function is
// observationally identical to the inner one — results, errors, and
// panics included — only faster on repeats. ctrs may be nil.
//
// A CompositeFeature is cached at the part level instead of as a whole:
// each part is wrapped individually and the concatenation is recomputed
// from the parts' (cached) vectors. This is where cross-version reuse
// pays — an engineering session that edits one sub-feature reuses every
// other part's cached vectors (recipe.Diff's shared_parts counts them).
//
// Cached results are shared by reference across runs; consumers must
// treat them as immutable (every learner does — features are read-only
// after extraction).
func Cached(f FeatureFunc, cache *featcache.Cache, ctrs *CacheCounters) FeatureFunc {
	if cache == nil {
		return f
	}
	if comp, ok := f.(*CompositeFeature); ok {
		parts := make([]FeatureFunc, len(comp.parts))
		for i, p := range comp.parts {
			parts[i] = Cached(p, cache, ctrs)
		}
		return &CompositeFeature{FuncCore: comp.FuncCore, parts: parts}
	}
	cf := &cachedFunc{inner: f, cache: cache, ctrs: ctrs}
	if already, ok := f.(*cachedFunc); ok {
		cf.inner, cf.fp = already.inner, already.fp
	} else {
		cf.fp = FingerprintOf(f)
	}
	if ctrs != nil {
		cf.tally = ctrs.part(cf.inner.Name())
	}
	return cf
}

// cachedFunc memoizes one (non-composite) feature function.
type cachedFunc struct {
	inner FeatureFunc
	fp    string
	cache *featcache.Cache
	ctrs  *CacheCounters
	tally *partTally // ctrs' tally for inner.Name(); nil when ctrs is
}

// Name implements FeatureFunc. The wrapper is transparent: traces, table
// labels and RNG substream derivations must not change when caching is
// switched on.
func (c *cachedFunc) Name() string { return c.inner.Name() }

// Dim implements FeatureFunc.
func (c *cachedFunc) Dim() int { return c.inner.Dim() }

// NumClasses implements FeatureFunc.
func (c *cachedFunc) NumClasses() int { return c.inner.NumClasses() }

// Fingerprint implements Fingerprinter, so re-wrapping is stable.
func (c *cachedFunc) Fingerprint() string { return c.fp }

// Extract implements FeatureFunc through the cache. Extraction errors are
// returned verbatim and never cached (each request retries, exactly like
// the uncached path); panics propagate to this caller.
func (c *cachedFunc) Extract(in *corpus.Input) (Result, error) {
	start := time.Now()
	var compute time.Duration
	v, hit, err := c.cache.GetOrCompute(c.fp, in.ID, func() (any, error) {
		t := time.Now()
		res, err := c.inner.Extract(in)
		compute = time.Since(t)
		if err != nil {
			return nil, err
		}
		return res, nil
	})
	if c.ctrs != nil {
		// Lookup time is total minus the inner compute, so hits charge the
		// full call and misses charge only the cache's own overhead.
		overhead := max(time.Since(start)-compute, 0)
		c.ctrs.LookupNanos.Add(int64(overhead))
		if err == nil {
			if hit {
				c.ctrs.Hits.Add(1)
			} else {
				c.ctrs.Misses.Add(1)
			}
			c.tally.add(hit, overhead, compute)
		}
	}
	if err != nil {
		return Result{}, err
	}
	return v.(Result), nil
}
