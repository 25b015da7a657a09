package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// highWater counts concurrent calls and keeps the peak.
type highWater struct{ now, peak atomic.Int64 }

func (h *highWater) enter() {
	n := h.now.Add(1)
	for p := h.peak.Load(); n > p && !h.peak.CompareAndSwap(p, n); p = h.peak.Load() {
	}
}

func (h *highWater) exit() { h.now.Add(-1) }

// TestShareStaysWithinBudget: held runs plus concurrent fn calls never
// exceed GOMAXPROCS, while a lone run does borrow the idle cores.
func TestShareStaysWithinBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	call := func(hw *highWater) func(int) {
		return func(int) { hw.enter(); time.Sleep(time.Millisecond); hw.exit() }
	}

	var lone highWater
	release := Hold()
	Share(32, call(&lone))
	release()
	if lone.peak.Load() < 2 {
		t.Fatalf("a lone run on 4 cores peaked at %d concurrent calls", lone.peak.Load())
	}

	// Every run holds before any shares: Hold never waits, so a run that
	// starts while helpers are out oversubscribes until that Share ends.
	var shared highWater
	idle := Hold() // a run that is busy elsewhere
	var held, wg sync.WaitGroup
	held.Add(2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer Hold()()
			held.Done()
			held.Wait()
			Share(32, call(&shared))
		}()
	}
	wg.Wait()
	idle()
	if peak := shared.peak.Load(); peak+1 > 4 {
		t.Fatalf("peak %d concurrent calls beside 1 idle held run exceeds GOMAXPROCS 4", peak)
	}
	if b := busy.Load(); b != 0 {
		t.Fatalf("busy = %d after every run released", b)
	}
}

// TestShareInlineWhenEveryCoreHeld: with no slot free, Share borrows
// nothing and runs every index on the caller.
func TestShareInlineWhenEveryCoreHeld(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer Hold()()
	defer Hold()()
	var hw highWater
	Share(16, func(int) {
		hw.enter()
		if b := busy.Load(); b != 2 {
			t.Errorf("busy = %d inside a Share with every slot held", b)
		}
		hw.exit()
	})
	if hw.peak.Load() != 1 {
		t.Fatalf("peak %d concurrent calls with every slot held", hw.peak.Load())
	}
}

// TestShareNestedAndIndexKeyed: a helper may Share again without
// deadlock, every output lands in its own slot, and ShareChunks returns
// chunks in order.
func TestShareNestedAndIndexKeyed(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	out := make([]int, 64)
	Share(8, func(i int) {
		Share(8, func(j int) { out[8*i+j] = 8*i + j })
	})
	for i, v := range out {
		if v != i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	chunks := ShareChunks(1003, 64, func(lo, hi int) [2]int { return [2]int{lo, hi} })
	for i, c := range chunks {
		if lo, hi := ChunkBounds(1003, 64, i); c != [2]int{lo, hi} {
			t.Fatalf("chunk %d = %v, want [%d %d)", i, c, lo, hi)
		}
	}
	if len(chunks) != NumChunks(1003, 64) || busy.Load() != 0 {
		t.Fatalf("%d chunks, busy %d afterwards", len(chunks), busy.Load())
	}
}

// TestSharePanicReachesCaller: a panic in fn, on whichever goroutine,
// surfaces on the caller after every helper has given its slot back.
func TestSharePanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, bad := range []int{0, 5, 31} {
		func() {
			defer func() {
				if p := recover(); p != "boom" {
					t.Fatalf("index %d: recovered %v", bad, p)
				}
				if b := busy.Load(); b != 0 {
					t.Fatalf("index %d: busy = %d after the panic", bad, b)
				}
			}()
			Share(32, func(i int) {
				time.Sleep(100 * time.Microsecond)
				if i == bad {
					panic("boom")
				}
			})
		}()
	}
}
