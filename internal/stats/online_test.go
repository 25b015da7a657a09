package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOnlineBasics(t *testing.T) {
	var o Online
	if o.N() != 0 || o.Mean() != 0 || o.Var() != 0 {
		t.Fatal("zero value should report zeros")
	}
	addAll(&o, []float64{2, 4, 4, 4, 5, 5, 7, 9})
	if o.N() != 8 {
		t.Fatalf("N = %d", o.N())
	}
	if math.Abs(o.Mean()-5) > 1e-12 {
		t.Fatalf("Mean = %v", o.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(o.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v", o.Var())
	}
	if o.Min() != 2 || o.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", o.Min(), o.Max())
	}
	if math.Abs(o.Sum()-40) > 1e-9 {
		t.Fatalf("Sum = %v", o.Sum())
	}
}

func TestOnlineSingleObservation(t *testing.T) {
	var o Online
	o.Add(3.5)
	if o.Var() != 0 || o.Std() != 0 {
		t.Fatal("variance with one observation should be 0")
	}
	if o.Min() != 3.5 || o.Max() != 3.5 {
		t.Fatal("min/max wrong for single observation")
	}
}

func TestOnlineMergeMatchesSequential(t *testing.T) {
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(func(a, b [16]float64) bool {
		for i := range a {
			if bad(a[i]) || bad(b[i]) {
				return true
			}
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
		}
		var whole, left, right Online
		addAll(&whole, a[:])
		addAll(&whole, b[:])
		addAll(&left, a[:])
		addAll(&right, b[:])
		left.Merge(&right)
		return left.N() == whole.N() &&
			close9(left.Mean(), whole.Mean()) &&
			close9(left.Var(), whole.Var()) &&
			left.Min() == whole.Min() && left.Max() == whole.Max()
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineMergeEmpty(t *testing.T) {
	var a, b Online
	a.Add(1)
	a.Merge(&b) // empty rhs: no-op
	if a.N() != 1 {
		t.Fatal("merge with empty changed state")
	}
	var c Online
	c.Merge(&a) // empty lhs: copy
	if c.N() != 1 || c.Mean() != 1 {
		t.Fatal("merge into empty should copy")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	for i := 0; i < 5; i++ {
		c.Inc()
	}
	if c.Count() != 5 {
		t.Fatalf("Count = %d", c.Count())
	}
}

func addAll(o *Online, xs []float64) {
	for _, x := range xs {
		o.Add(x)
	}
}

func bad(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }

func close9(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}
