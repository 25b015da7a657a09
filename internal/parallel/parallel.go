// Package parallel provides the bounded-concurrency primitives shared by
// the rest of the system: ordered fan-out/fan-in over index spaces for the
// experiment harness and the index build, fixed-granularity chunking for
// deterministic reductions, the process-wide budget a run borrows idle
// cores from (Hold, Share), and a fixed-size worker pool backing the
// serving layer.
//
// Determinism contract: every helper returns (or hands the caller) results
// keyed by index or chunk position, never by completion order. Callers that
// merge floating-point partials must do so in index order; with that rule a
// computation produces identical output for any worker count, which is what
// lets `zombie-bench -parallel N` stay byte-identical to the sequential
// baseline.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n > 0 is used as-is, anything
// else falls back to GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns when all calls have finished. With workers <= 1 (or n <= 1)
// it runs inline on the calling goroutine, so sequential callers pay no
// synchronization. fn must write any output to per-index slots; it must not
// share mutable state across indices.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Map runs fn over [0, n) with bounded concurrency and returns the results
// in index order regardless of completion order.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapErr is Map for fallible jobs. Every job runs to completion (no
// cancellation of siblings); the error returned is the first failure in
// index order — not submission or completion order — so an error surfaced
// to the caller is the same one a sequential loop would have hit first.
func MapErr[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	ForEach(workers, n, func(i int) { out[i], errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// NumChunks returns how many fixed-size chunks cover n items.
func NumChunks(n, chunkSize int) int {
	if n <= 0 {
		return 0
	}
	return (n + chunkSize - 1) / chunkSize
}

// ChunkBounds returns the half-open [lo, hi) bounds of chunk i when n items
// are split into fixed-size chunks.
func ChunkBounds(n, chunkSize, i int) (lo, hi int) {
	lo = i * chunkSize
	hi = lo + chunkSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// MapChunks splits [0, n) into fixed-size chunks and runs fn over each
// chunk's bounds with bounded concurrency, returning per-chunk results in
// chunk order. Because the chunk boundaries depend only on n and chunkSize
// — never on the worker count — a caller that folds the returned partials
// left-to-right gets an identical result for any worker count, including
// for order-sensitive merges like floating-point sums. It panics if
// chunkSize <= 0.
func MapChunks[T any](workers, n, chunkSize int, fn func(lo, hi int) T) []T {
	if chunkSize <= 0 {
		panic("parallel: MapChunks requires chunkSize > 0")
	}
	chunks := NumChunks(n, chunkSize)
	return Map(workers, chunks, func(i int) T {
		lo, hi := ChunkBounds(n, chunkSize, i)
		return fn(lo, hi)
	})
}

// busy counts goroutines doing runs' work process-wide: one per held run
// plus one per borrowed helper. Helpers are borrowed only while busy <
// GOMAXPROCS, so two held runs on two cores leave nothing to borrow.
var busy atomic.Int64

// Hold counts the caller as one running run until release; every engine
// run holds one slot throughout. It never waits: a run that starts while
// helpers are out shares the cores with them until their Share returns.
func Hold() (release func()) {
	busy.Add(1)
	return func() { busy.Add(-1) }
}

// borrow takes a helper slot if one is free.
func borrow() bool {
	if busy.Add(1) <= int64(runtime.GOMAXPROCS(0)) {
		return true
	}
	busy.Add(-1)
	return false
}

// Share runs fn(i) for every i in [0, n) on the caller plus as many helper
// goroutines as the budget has free; with none free, everything runs
// inline. The caller counts only if it holds a slot. fn writes to
// per-index slots and should not panic: the first panic is re-raised on
// the caller once every helper has stopped. Nested calls are safe.
func Share(n int, fn func(i int)) {
	var next atomic.Int64
	var failure atomic.Pointer[any]
	work := func() {
		defer func() {
			if p := recover(); p != nil {
				failure.CompareAndSwap(nil, &p)
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for h := 1; h < n && borrow(); h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer busy.Add(-1)
			work()
		}()
	}
	work()
	wg.Wait()
	if p := failure.Load(); p != nil {
		panic(*p)
	}
}

// ShareChunks is MapChunks over Share: fn runs over fixed-size chunks of
// [0, n) and the results come back in chunk order, so a left-to-right fold
// is identical however many helpers were free.
func ShareChunks[T any](n, chunkSize int, fn func(lo, hi int) T) []T {
	out := make([]T, NumChunks(n, chunkSize))
	Share(len(out), func(i int) { out[i] = fn(ChunkBounds(n, chunkSize, i)) })
	return out
}
