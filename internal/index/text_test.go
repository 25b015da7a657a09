package index

import (
	"hash/fnv"
	"math"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/rng"
)

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! foo-bar c3po  ")
	want := []string{"hello", "world", "foo", "bar", "c3po"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(Tokenize("")) != 0 {
		t.Fatal("empty text should yield no tokens")
	}
}

func TestHashTokenStableAndInRange(t *testing.T) {
	a := HashToken("hello", 64)
	b := HashToken("hello", 64)
	if a != b {
		t.Fatal("HashToken not stable")
	}
	for _, tok := range []string{"a", "bb", "ccc", "dddd", "many different tokens"} {
		h := HashToken(tok, 7)
		if h < 0 || h >= 7 {
			t.Fatalf("HashToken(%q, 7) = %d out of range", tok, h)
		}
	}
}

// TestHashTokenMatchesStdlibFNV pins the inlined hash to hash/fnv: bucket
// assignment is baked into every committed curve and baseline, so the
// allocation-free rewrite must be bit-equal to the stdlib hasher it
// replaced.
func TestHashTokenMatchesStdlibFNV(t *testing.T) {
	ref := func(s string, dim int) int {
		h := fnv.New32a()
		h.Write([]byte(s))
		return int(h.Sum32() % uint32(dim))
	}
	tokens := []string{"", "a", "the", "zombie", "élan", "a_b", "many different tokens", "0123456789"}
	for _, tok := range tokens {
		for _, dim := range []int{1, 7, 64, 16384} {
			if got, want := HashToken(tok, dim), ref(tok, dim); got != want {
				t.Fatalf("HashToken(%q, %d) = %d, want stdlib %d", tok, dim, got, want)
			}
		}
	}
}

func TestHashedTextVectorizer(t *testing.T) {
	v := NewHashedText(32)
	if v.Dim() != 32 || v.Name() != "hashed-text" {
		t.Fatal("metadata wrong")
	}
	in := &corpus.Input{Kind: corpus.TextKind, Text: "apple apple banana"}
	vec := v.Vectorize(in)
	if len(vec) != 32 {
		t.Fatalf("dim = %d", len(vec))
	}
	// L2-normalized.
	norm := 0.0
	for _, x := range vec {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Fatalf("norm² = %v", norm)
	}
	// apple bucket weight is double banana's (pre-normalization 2 vs 1).
	ai, bi := HashToken("apple", 32), HashToken("banana", 32)
	if ai != bi && vec[ai] <= vec[bi] {
		t.Fatalf("token weighting wrong: apple=%v banana=%v", vec[ai], vec[bi])
	}
	// Non-text inputs vectorize to zeros.
	zero := v.Vectorize(&corpus.Input{Kind: corpus.NumericKind, Values: []float64{1}})
	for _, x := range zero {
		if x != 0 {
			t.Fatal("numeric input should vectorize to zeros")
		}
	}
	mustPanic(t, "dim", func() { NewHashedText(0) })
}

func TestNumericVectorizer(t *testing.T) {
	v := NewNumeric(3)
	in := &corpus.Input{Kind: corpus.NumericKind, Values: []float64{1, 2, 3}}
	vec := v.Vectorize(in)
	if vec[0] != 1 || vec[2] != 3 {
		t.Fatalf("passthrough wrong: %v", vec)
	}
	// Wrong kind or dim yields zeros.
	if v.Vectorize(&corpus.Input{Kind: corpus.TextKind, Text: "x"})[0] != 0 {
		t.Fatal("text input should vectorize to zeros")
	}
	if v.Vectorize(&corpus.Input{Kind: corpus.NumericKind, Values: []float64{1}})[0] != 0 {
		t.Fatal("wrong-dim input should vectorize to zeros")
	}
	mustPanic(t, "dim", func() { NewNumeric(-1) })
}

func TestNumericStandardize(t *testing.T) {
	r := rng.New(50)
	ins := make([]*corpus.Input, 500)
	for i := range ins {
		ins[i] = &corpus.Input{
			Kind:   corpus.NumericKind,
			Values: []float64{r.Gaussian(10, 2), r.Gaussian(-5, 0.5), 7}, // dim 2 constant
		}
	}
	v := NewNumeric(3)
	v.FitStandardize(corpus.NewMemStore(ins))
	// After standardization the sample mean ≈ 0 and std ≈ 1 per dim.
	var sum, sum2 [3]float64
	for _, in := range ins {
		vec := v.Vectorize(in)
		for d := range vec {
			sum[d] += vec[d]
			sum2[d] += vec[d] * vec[d]
		}
	}
	n := float64(len(ins))
	for d := 0; d < 2; d++ {
		mean := sum[d] / n
		std := math.Sqrt(sum2[d]/n - mean*mean)
		if math.Abs(mean) > 0.1 || math.Abs(std-1) > 0.1 {
			t.Fatalf("dim %d not standardized: mean=%v std=%v", d, mean, std)
		}
	}
	// Constant dim: scale fell back to 1, so values become 0.
	if got := v.Vectorize(ins[0])[2]; got != 0 {
		t.Fatalf("constant dim should standardize to 0, got %v", got)
	}
}

func TestTFIDF(t *testing.T) {
	docs := []*corpus.Input{
		{Kind: corpus.TextKind, Text: "the cat sat"},
		{Kind: corpus.TextKind, Text: "the dog ran"},
		{Kind: corpus.TextKind, Text: "the the the"},
	}
	v := NewTFIDF(64)
	if v.idf != nil {
		t.Fatal("unfitted TFIDF claims fitted")
	}
	mustPanic(t, "vectorize before fit", func() {
		v.Vectorize(docs[0])
	})
	v.Fit(corpus.NewMemStore(docs))
	if len(v.idf) != 64 {
		t.Fatalf("Fit state wrong: %d idf buckets, want 64", len(v.idf))
	}
	vec := v.Vectorize(docs[0])
	// "the" appears in every doc: its idf (and weight) must be the lowest
	// among the document's tokens.
	theW := vec[HashToken("the", 64)]
	catW := vec[HashToken("cat", 64)]
	if theW >= catW {
		t.Fatalf("idf weighting wrong: the=%v cat=%v", theW, catW)
	}
	mustPanic(t, "dim", func() { NewTFIDF(0) })
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
