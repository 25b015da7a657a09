package server

import (
	"context"
	"sync"

	"zombie/internal/index"
)

// IndexKey identifies one cacheable index build. Strategy is the grouper's
// Name() — it encodes the vectorizer, so two tasks that would build
// different groups never collide.
type IndexKey struct {
	Corpus   string
	Strategy string
	K        int
	Seed     int64
}

// indexEntry is one in-flight or completed build. ready is closed when
// groups/err are final; waiters block on it instead of re-building.
type indexEntry struct {
	ready  chan struct{}
	groups *index.Groups
	err    error
}

// IndexCache caches built index groups keyed by (corpus, strategy, k,
// seed) with singleflight semantics: the first request for a key runs the
// build, concurrent requests for the same key wait for that one build, and
// later requests hit the cached result. Groups are immutable once built
// (runs keep private cursors), so one value is safely shared by every
// concurrent run.
//
// A failed build is evicted so the next request retries rather than
// pinning the error forever; the waiters of the failed attempt all observe
// its error.
type IndexCache struct {
	mu      sync.Mutex
	entries map[IndexKey]*indexEntry
	metrics *Metrics
}

// NewIndexCache returns an empty cache. A nil metrics gets a private
// registry.
func NewIndexCache(metrics *Metrics) *IndexCache {
	if metrics == nil {
		metrics = NewMetrics(nil)
	}
	return &IndexCache{entries: map[IndexKey]*indexEntry{}, metrics: metrics}
}

// Get returns the groups for key, building them with build if no other
// request has. The build itself is not interruptible (it runs on whichever
// goroutine got there first, for every waiter's benefit), but waiting for
// someone else's build respects ctx.
func (c *IndexCache) Get(ctx context.Context, key IndexKey, build func() (*index.Groups, error)) (*index.Groups, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		c.metrics.IndexCacheHits.Add(1)
		select {
		case <-e.ready:
			return e.groups, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &indexEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	c.metrics.IndexBuilds.Add(1)
	e.groups, e.err = build()
	if e.err != nil {
		c.mu.Lock()
		// Only evict our own entry: a concurrent retry may have already
		// replaced it.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
	}
	close(e.ready)
	return e.groups, e.err
}
