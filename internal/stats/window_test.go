package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWindowBasics(t *testing.T) {
	w := NewWindow(3)
	if w.Len() != 0 || w.Full() {
		t.Fatal("fresh window state wrong")
	}
	if w.sum != 0 || w.Mean() != 0 {
		t.Fatal("empty window sums should be 0")
	}
	w.Add(1)
	w.Add(2)
	w.Add(3)
	if !w.Full() || w.sum != 6 || w.Mean() != 2 {
		t.Fatalf("full window wrong: sum=%v mean=%v", w.sum, w.Mean())
	}
	w.Add(4) // evicts 1
	if w.sum != 9 {
		t.Fatalf("eviction wrong: sum=%v", w.sum)
	}
	vals := w.Values()
	if len(vals) != 3 || vals[0] != 2 || vals[2] != 4 {
		t.Fatalf("Values order wrong: %v", vals)
	}
}

func TestWindowPanics(t *testing.T) {
	mustPanic(t, func() { NewWindow(0) })
}

func TestWindowSumMatchesValues(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(func(xs [40]float64, capRaw uint8) bool {
		capacity := int(capRaw%10) + 1
		w := NewWindow(capacity)
		for _, x := range xs {
			if bad(x) {
				return true
			}
			w.Add(math.Mod(x, 1e4))
		}
		want := 0.0
		for _, v := range w.Values() {
			want += v
		}
		return math.Abs(w.sum-want) < 1e-6*(1+math.Abs(want)) &&
			w.Len() == min(capacity, len(xs))
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestWindowLongStreamNoDrift(t *testing.T) {
	w := NewWindow(7)
	for i := 0; i < 100000; i++ {
		w.Add(float64(i%13) * 0.1)
	}
	want := 0.0
	for _, v := range w.Values() {
		want += v
	}
	if math.Abs(w.sum-want) > 1e-6 {
		t.Fatalf("sum drifted: incremental=%v recomputed=%v", w.sum, want)
	}
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
