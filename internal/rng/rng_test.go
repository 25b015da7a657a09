package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("same-seed RNGs diverged at draw %d", i)
		}
	}
}

func TestSplitIndependentOfConsumption(t *testing.T) {
	a := New(7)
	b := New(7)
	// Consume part of a's stream before splitting; the substream must be
	// identical either way.
	for i := 0; i < 100; i++ {
		a.Float64()
	}
	sa := a.Split("corpus")
	sb := b.Split("corpus")
	for i := 0; i < 100; i++ {
		if sa.Float64() != sb.Float64() {
			t.Fatalf("substream depends on parent consumption at draw %d", i)
		}
	}
}

func TestSplitDistinctNames(t *testing.T) {
	r := New(1)
	a := r.Split("a")
	b := r.Split("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("substreams with different names look identical (%d/64 equal draws)", same)
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(5)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if r.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !r.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(11)
	n, hits := 20000, 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / float64(n)
	if math.Abs(rate-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) empirical rate %.4f out of tolerance", rate)
	}
}

func TestWeightedChoiceProportions(t *testing.T) {
	r := New(13)
	w := []float64{1, 2, 7}
	counts := make([]int, 3)
	n := 30000
	for i := 0; i < n; i++ {
		counts[r.WeightedChoice(w)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		got := float64(counts[i]) / float64(n)
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("arm %d: got rate %.4f want ~%.2f", i, got, want)
		}
	}
}

func TestWeightedChoiceAllZero(t *testing.T) {
	r := New(17)
	counts := make([]int, 4)
	for i := 0; i < 8000; i++ {
		counts[r.WeightedChoice([]float64{0, 0, 0, 0})]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("uniform fallback never chose index %d", i)
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	r := New(19)
	mustPanic(t, "empty", func() { r.WeightedChoice(nil) })
	mustPanic(t, "negative", func() { r.WeightedChoice([]float64{1, -1}) })
}

func TestSampleWithoutReplacement(t *testing.T) {
	r := New(23)
	got := r.SampleWithoutReplacement(50, 20)
	if len(got) != 20 {
		t.Fatalf("got %d samples, want 20", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if v < 0 || v >= 50 {
			t.Fatalf("sample %d out of range", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
	if s := r.SampleWithoutReplacement(5, 5); len(s) != 5 {
		t.Fatalf("k==n should return all indices, got %d", len(s))
	}
	if s := r.SampleWithoutReplacement(5, 0); len(s) != 0 {
		t.Fatalf("k==0 should return empty, got %d", len(s))
	}
	mustPanic(t, "k>n", func() { r.SampleWithoutReplacement(3, 4) })
}

func TestIntRange(t *testing.T) {
	r := New(29)
	for i := 0; i < 1000; i++ {
		v := r.IntRange(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("IntRange out of bounds: %d", v)
		}
	}
	mustPanic(t, "empty range", func() { r.IntRange(5, 5) })
}

func TestGammaMoments(t *testing.T) {
	r := New(31)
	for _, tc := range []struct{ shape, scale float64 }{
		{0.5, 1}, {1, 2}, {3, 1}, {9, 0.5},
	} {
		n := 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += r.Gamma(tc.shape, tc.scale)
		}
		mean := sum / float64(n)
		want := tc.shape * tc.scale
		if math.Abs(mean-want) > 0.08*want+0.02 {
			t.Fatalf("Gamma(%.1f,%.1f) mean %.4f want ~%.4f", tc.shape, tc.scale, mean, want)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	r := New(37)
	alpha, beta := 2.0, 5.0
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		x := r.Beta(alpha, beta)
		if x < 0 || x > 1 {
			t.Fatalf("Beta deviate %.4f outside [0,1]", x)
		}
		sum += x
	}
	mean := sum / float64(n)
	want := alpha / (alpha + beta)
	if math.Abs(mean-want) > 0.02 {
		t.Fatalf("Beta mean %.4f want ~%.4f", mean, want)
	}
}

func TestDirichletSimplex(t *testing.T) {
	r := New(41)
	if err := quick.Check(func(seed int64) bool {
		p := New(seed).Dirichlet(0.7, 5)
		total := 0.0
		for _, v := range p {
			if v < 0 {
				return false
			}
			total += v
		}
		return math.Abs(total-1) < 1e-9
	}, &quick.Config{MaxCount: 50, Rand: r.Rand}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(43)
	z := r.NewZipf(1.1, 1000)
	counts := make([]int, 1000)
	n := 50000
	for i := 0; i < n; i++ {
		counts[z.Draw()]++
	}
	if counts[0] <= counts[10] {
		t.Fatalf("Zipf rank 0 (%d) not more frequent than rank 10 (%d)", counts[0], counts[10])
	}
	if counts[0] <= n/100 {
		t.Fatalf("Zipf head too light: %d draws of rank 0 out of %d", counts[0], n)
	}
}

func TestZipfBounds(t *testing.T) {
	r := New(47)
	z := r.NewZipf(0.8, 17)
	for i := 0; i < 5000; i++ {
		v := z.Draw()
		if v < 0 || v >= 17 {
			t.Fatalf("Zipf draw %d out of range", v)
		}
	}
}

func TestPoisson(t *testing.T) {
	r := New(53)
	if got := r.Poisson(0); got != 0 {
		t.Fatalf("Poisson(0) = %d, want 0", got)
	}
	for _, lambda := range []float64{0.5, 4, 32, 200} {
		n := 20000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / float64(n)
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%.1f) mean %.4f out of tolerance", lambda, mean)
		}
	}
}

func TestTruncGaussianBounds(t *testing.T) {
	r := New(59)
	for i := 0; i < 5000; i++ {
		x := r.TruncGaussian(0, 1, -0.5, 0.5)
		if x < -0.5 || x > 0.5 {
			t.Fatalf("TruncGaussian escaped bounds: %.4f", x)
		}
	}
	// Far-tail window must terminate via the clamp fallback.
	x := r.TruncGaussian(0, 1, 50, 60)
	if x < 50 || x > 60 {
		t.Fatalf("TruncGaussian far-tail clamp out of bounds: %.4f", x)
	}
}

func TestExponentialMean(t *testing.T) {
	r := New(61)
	n := 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exponential(2)
	}
	mean := sum / float64(n)
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exponential(2) mean %.4f want ~0.5", mean)
	}
	mustPanic(t, "rate<=0", func() { r.Exponential(0) })
}

func TestShuffleIntsPermutes(t *testing.T) {
	r := New(67)
	s := make([]int, 100)
	for i := range s {
		s[i] = i
	}
	r.ShuffleInts(s)
	seen := map[int]bool{}
	for _, v := range s {
		seen[v] = true
	}
	if len(seen) != 100 {
		t.Fatalf("shuffle lost elements: %d distinct", len(seen))
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
