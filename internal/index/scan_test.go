package index

import (
	"math"
	"strings"
	"testing"
	"unicode"

	"zombie/internal/corpus"
	"zombie/internal/linalg"
	"zombie/internal/rng"
)

// Tokenize and HashTokenPair are the pipeline TokenScanner replaced, kept
// as the oracle every scanner test compares against: lowercase a copy,
// split it into a []string, hash each token (and each bigram) from
// scratch.
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

func HashTokenPair(a, b string, dim int) int {
	return HashToken(a+"_"+b, dim)
}

// scanSeeds are the inputs the fuzz corpus under testdata/fuzz also
// holds: case pairs whose encodings differ in length ('İ' → 'i', 'K' →
// 'k'), a titlecase digraph, 'ß' and its capital, invalid bytes, a
// multi-byte letter at each end, and the empty and all-separator texts.
var scanSeeds = []string{
	"İstanbul K ǅ ß ẞ",
	"\xff\xfe",
	"élan vital naïveté",
	"",
	" \t\n.,;-_!",
	"Hello, World! foo-bar c3po  ",
	"a\xe2\x82b \xed\xa0\x80 Ⱥⱥ � x٣y Ⅷ",
}

// checkScan asserts the scanner against the oracle on one text: same
// token count, spans that lowercase to the oracle's tokens, and unigram
// and bigram buckets equal to HashToken / HashTokenPair at a prime dim
// (a power of two would hide disagreement in the state's high bits).
func checkScan(t *testing.T, text string) {
	t.Helper()
	const dim = 16381
	tokens := Tokenize(text)
	sc := TokenScanner{Text: text}
	for i, tok := range tokens {
		if !sc.Next() {
			t.Fatalf("%q: scanner stopped after %d tokens, oracle has %d", text, i, len(tokens))
		}
		if sc.N != i+1 {
			t.Fatalf("%q: token %d has N = %d", text, i, sc.N)
		}
		if got := strings.ToLower(text[sc.Start:sc.End]); got != tok {
			t.Fatalf("%q: token %d spans %q, want %q", text, i, got, tok)
		}
		if got, want := int(sc.Hash%dim), HashToken(tok, dim); got != want {
			t.Fatalf("%q: token %q bucket %d, want %d", text, tok, got, want)
		}
		if i > 0 {
			if got, want := int(sc.Pair%dim), HashTokenPair(tokens[i-1], tok, dim); got != want {
				t.Fatalf("%q: bigram %q_%q bucket %d, want %d", text, tokens[i-1], tok, got, want)
			}
		}
	}
	if sc.Next() || sc.Next() {
		t.Fatalf("%q: scanner yields more than the oracle's %d tokens", text, len(tokens))
	}
}

func TestScanTokensSeeds(t *testing.T) {
	for _, text := range scanSeeds {
		checkScan(t, text)
	}
	for _, in := range messyWiki(t, 300, 90) {
		checkScan(t, in.Text)
	}
}

func FuzzScanTokens(f *testing.F) {
	for _, text := range scanSeeds {
		f.Add(text)
	}
	f.Fuzz(checkScan)
}

// messyWiki generates wiki pages and roughens most of them — uppercase
// letters, words beyond ASCII, punctuation and invalid bytes between
// tokens — so the identity tests cover the scanner's non-ASCII branch,
// not only the generator's lowercase ASCII.
func messyWiki(t testing.TB, n int, seed int64) []*corpus.Input {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	odd := []string{"İstanbul", "K", "ǅ", "ß", "ẞ", "Ⱥ", "naïve", "ПРИВЕТ", "東京", "\xff\xfe", "\xe2\x82", "٣", "x_y"}
	r := rng.New(seed).Split("messy")
	for i, in := range ins {
		if i%4 == 0 {
			continue
		}
		var sb strings.Builder
		for _, word := range strings.Fields(in.Text) {
			switch r.Intn(12) {
			case 0:
				word = strings.ToUpper(word)
			case 1:
				word = odd[r.Intn(len(odd))]
			case 2:
				word += odd[r.Intn(len(odd))]
			}
			sb.WriteString(word)
			sb.WriteString([]string{" ", " ", ", ", "\n", "\xc0", "—"}[r.Intn(6)])
		}
		in.Text = sb.String()
	}
	return ins
}

// refCounts is the per-bucket token count the vectorizers start from,
// built the old way.
func refCounts(text string, dim int) []float64 {
	out := make([]float64, dim)
	for _, tok := range Tokenize(text) {
		out[HashToken(tok, dim)]++
	}
	return out
}

func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestVectorizersMatchTokenizeReference: moving the vectorizers onto the
// scanner changed no bit of what they return — HashedText, a fitted
// TFIDF, and the fitted idf itself with the budget free and with every
// slot held, against the same arithmetic over Tokenize + HashToken.
func TestVectorizersMatchTokenizeReference(t *testing.T) {
	const dim = 61
	ins := messyWiki(t, 2000, 91)
	store := corpus.NewMemStore(ins)

	df := make([]int, dim)
	for _, in := range ins {
		for b, c := range refCounts(in.Text, dim) {
			if c > 0 {
				df[b]++
			}
		}
	}
	idf := make([]float64, dim)
	for b := range idf {
		idf[b] = math.Log((1+float64(len(ins)))/(1+float64(df[b]))) + 1
	}
	tfidf := NewTFIDF(dim)
	for _, held := range []int{0, 4} {
		underBudget(4, held, func() { tfidf.Fit(store) })
		if !equalBits(tfidf.idf, idf) {
			t.Fatalf("%d slots held: fitted idf differs from the Tokenize reference", held)
		}
	}

	hashed := NewHashedText(dim)
	for _, in := range ins {
		want := refCounts(in.Text, dim)
		linalg.Normalize(want)
		if !equalBits(hashed.Vectorize(in), want) {
			t.Fatalf("input %s: HashedText.Vectorize differs from the Tokenize reference", in.ID)
		}
		want = refCounts(in.Text, dim)
		for b := range want {
			if want[b] > 0 {
				want[b] = (1 + math.Log(want[b])) * idf[b]
			}
		}
		linalg.Normalize(want)
		if !equalBits(tfidf.Vectorize(in), want) {
			t.Fatalf("input %s: TFIDF.Vectorize differs from the Tokenize reference", in.ID)
		}
	}
}

func BenchmarkScanTokens(b *testing.B) {
	cfg := corpus.DefaultWikiConfig()
	cfg.N = 256
	ins, err := corpus.GenerateWiki(cfg, rng.New(900))
	if err != nil {
		b.Fatal(err)
	}
	bytes := 0
	for _, in := range ins {
		bytes += len(in.Text)
	}
	b.SetBytes(int64(bytes / len(ins)))
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		for sc := (TokenScanner{Text: ins[i%len(ins)].Text}); sc.Next(); {
			sink += sc.Hash ^ sc.Pair
		}
	}
	benchSink = sink
}

var benchSink uint32
