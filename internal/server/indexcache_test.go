package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zombie/internal/index"
)

func TestIndexCacheSingleflight(t *testing.T) {
	metrics := NewMetrics(nil)
	cache := NewIndexCache(metrics)
	key := IndexKey{Corpus: "c", Strategy: "kmeans", K: 8, Seed: 1}

	var builds atomic.Int64
	build := func() (*index.Groups, error) {
		builds.Add(1)
		time.Sleep(30 * time.Millisecond) // hold the flight open for the pack
		return &index.Groups{Strategy: "kmeans"}, nil
	}

	const callers = 8
	results := make([]*index.Groups, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, err := cache.Get(context.Background(), key, build)
			if err != nil {
				t.Error(err)
			}
			results[i] = g
		}(i)
	}
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, g := range results {
		if g != results[0] {
			t.Fatalf("caller %d got a different Groups pointer", i)
		}
	}
	if metrics.IndexBuilds.Load() != 1 || metrics.IndexCacheHits.Load() != callers-1 {
		t.Fatalf("metrics: builds=%d hits=%d", metrics.IndexBuilds.Load(), metrics.IndexCacheHits.Load())
	}
	if len(cache.entries) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(cache.entries))
	}
}

func TestIndexCacheDistinctKeysBuildSeparately(t *testing.T) {
	cache := NewIndexCache(nil)
	var builds atomic.Int64
	build := func() (*index.Groups, error) {
		builds.Add(1)
		return &index.Groups{}, nil
	}
	a := IndexKey{Corpus: "c", Strategy: "s", K: 8, Seed: 1}
	b := IndexKey{Corpus: "c", Strategy: "s", K: 16, Seed: 1}
	if _, err := cache.Get(context.Background(), a, build); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Get(context.Background(), b, build); err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Fatalf("builds = %d, want 2 (distinct keys)", builds.Load())
	}
}

func TestIndexCacheEvictsFailedBuild(t *testing.T) {
	cache := NewIndexCache(nil)
	key := IndexKey{Corpus: "c", Strategy: "s", K: 8, Seed: 1}
	boom := errors.New("boom")
	if _, err := cache.Get(context.Background(), key, func() (*index.Groups, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if len(cache.entries) != 0 {
		t.Fatal("failed build left a cache entry")
	}
	// The next request retries and can succeed.
	g, err := cache.Get(context.Background(), key, func() (*index.Groups, error) { return &index.Groups{}, nil })
	if err != nil || g == nil {
		t.Fatalf("retry failed: %v", err)
	}
}

func TestIndexCacheWaiterRespectsContext(t *testing.T) {
	cache := NewIndexCache(nil)
	key := IndexKey{Corpus: "c", Strategy: "s", K: 8, Seed: 1}
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		cache.Get(context.Background(), key, func() (*index.Groups, error) { //nolint:errcheck
			close(started)
			<-release
			return &index.Groups{}, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cache.Get(ctx, key, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
}
