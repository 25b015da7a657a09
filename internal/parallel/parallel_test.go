package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		n := 100
		hits := make([]atomic.Int64, n)
		ForEach(workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d hit %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	called := false
	ForEach(4, 0, func(int) { called = true })
	ForEach(4, -1, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestMapOrdered: MapErr returns results in index order regardless of
// completion order.
func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, err := MapErr(workers, 50, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapErrFirstErrorInIndexOrder(t *testing.T) {
	errA := errors.New("a")
	// Index 3 fails fast, index 1 fails slow: the reported error must be
	// index 1's regardless of completion order.
	_, err := MapErr(8, 6, func(i int) (int, error) {
		switch i {
		case 1:
			time.Sleep(20 * time.Millisecond)
			return 0, errA
		case 3:
			return 0, fmt.Errorf("b")
		default:
			return i, nil
		}
	})
	if !errors.Is(err, errA) {
		t.Fatalf("err = %v, want first-by-index error", err)
	}
}

func TestMapErrNoError(t *testing.T) {
	out, err := MapErr(4, 10, func(i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestChunkBounds(t *testing.T) {
	if NumChunks(0, 10) != 0 || NumChunks(10, 10) != 1 || NumChunks(11, 10) != 2 {
		t.Fatal("NumChunks wrong")
	}
	lo, hi := ChunkBounds(25, 10, 2)
	if lo != 20 || hi != 25 {
		t.Fatalf("bounds = [%d,%d)", lo, hi)
	}
}

// underBudget runs fn at GOMAXPROCS procs with held slots taken, so a
// Share inside lends up to procs-held helpers. Callers of Share hold at
// least one, as a run or an index build does.
func underBudget(procs, held int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for ; held > 0; held-- {
		defer Hold()()
	}
	fn()
}

func TestShareChunksDeterministicPartition(t *testing.T) {
	n := 1003
	for _, procs := range []int{1, 5} {
		underBudget(procs, 1, func() {
			parts := ShareChunks(n, 64, func(lo, hi int) int { return hi - lo })
			if len(parts) != NumChunks(n, 64) {
				t.Fatalf("chunks = %d", len(parts))
			}
			total := 0
			for _, p := range parts {
				total += p
			}
			if total != n {
				t.Fatalf("GOMAXPROCS %d: covered %d of %d", procs, total, n)
			}
		})
	}
}

// TestShareChunksFloatMergeStable is the determinism contract: folding
// chunk partials in order yields bit-identical sums however many helpers
// the budget lends.
func TestShareChunksFloatMergeStable(t *testing.T) {
	n := 5000
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1.0 / float64(i+1)
	}
	sum := func(procs, held int) (total float64) {
		underBudget(procs, held, func() {
			parts := ShareChunks(n, 256, func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += vals[i]
				}
				return s
			})
			for _, p := range parts {
				total += p
			}
		})
		return total
	}
	base := sum(1, 1)
	for _, procs := range []int{2, 3, 8, 32} {
		if got := sum(procs, 1); got != base {
			t.Fatalf("GOMAXPROCS %d: sum %v != inline %v", procs, got, base)
		}
		if got := sum(procs, procs); got != base {
			t.Fatalf("GOMAXPROCS %d, every slot held: sum %v != inline %v", procs, got, base)
		}
	}
}

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(3, 16)
	var count atomic.Int64
	for i := 0; i < 10; i++ {
		if !p.TrySubmit(func() { count.Add(1) }) {
			t.Fatal("submit refused")
		}
	}
	p.Close()
	p.Wait()
	if count.Load() != 10 {
		t.Fatalf("ran %d of 10", count.Load())
	}
}

func TestPoolBackpressureAndClose(t *testing.T) {
	p := NewPool(1, 1)
	block := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	p.TrySubmit(func() { defer wg.Done(); <-block }) // occupies the worker
	// Fill the single queue slot, then the next submit must be refused.
	filled := p.TrySubmit(func() {})
	// The worker may have already dequeued the first task, freeing a slot;
	// keep filling until refused to make the test robust.
	for filled {
		filled = p.TrySubmit(func() {})
	}
	if p.QueueDepth() > p.Cap() {
		t.Fatalf("queue depth %d exceeds cap %d", p.QueueDepth(), p.Cap())
	}
	close(block)
	p.Close()
	if p.TrySubmit(func() {}) {
		t.Fatal("submit accepted after Close")
	}
	p.Close() // idempotent
	p.Wait()
	wg.Wait()
}
