package featurepipe

import (
	"math"
	"strings"
	"testing"
	"unicode"

	"zombie/internal/corpus"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/linalg"
	"zombie/internal/rng"
)

// refWikiExtract is WikiFeature.Extract as it was before the one-pass
// scanner, written the slow obvious way: lowercase a copy, split it into
// strings, look markers up by string, hash every token and every joined
// bigram from scratch, accumulate into a map in token order. It shares
// nothing with Extract but index.HashToken.
func refWikiExtract(f *WikiFeature, in *corpus.Input) Result {
	tokens := strings.FieldsFunc(strings.ToLower(in.Text), func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	markers := map[string]bool{}
	for _, w := range corpus.EntityMarkers {
		markers[strings.ToLower(w)] = true
	}
	hasMarker := false
	for _, tok := range tokens {
		hasMarker = hasMarker || markers[tok]
	}
	if !hasMarker && index.HashToken(in.ID, 100) >= f.NegSamplePct {
		return Result{}
	}
	counts := map[int]float64{}
	prev := ""
	for _, tok := range tokens {
		w := 1.0
		if markers[tok] {
			w = f.MarkerBoost
		}
		counts[index.HashToken(tok, f.FuncDim)] += w
		if f.Bigrams && prev != "" {
			counts[index.HashToken(prev+"_"+tok, f.FuncDim)]++
		}
		prev = tok
	}
	ex := learner.Example{
		Features: learner.SparseVec(linalg.SparseFromMap(f.FuncDim, counts)),
		Class:    in.Truth.Class,
	}
	return Result{Example: ex, Produced: true, Useful: in.Truth.Class == 1}
}

// fnvCollisions are valid tokens whose FNV-1a state equals a marker's
// ("infobox", "career") while their bytes differ — found by exhaustive
// search over six-character tokens.
var fnvCollisions = []string{"cr7oht", "godzhn"}

// identityInputs generates wiki pages and roughens most of them so the
// comparison reaches everything the scanner and the marker check branch
// on: uppercase and non-ASCII spellings of the markers ('İ' and the
// Kelvin sign lowercase to ASCII), hash collisions with a marker, words
// beyond ASCII, invalid bytes and punctuation between tokens.
func identityInputs(t testing.TB, n int, seed int64) []*corpus.Input {
	ins := wikiInputs(t, n, seed)
	odd := append([]string{"Born", "INFOBOX", "posİtİon", "Kareer", "team_team", "teams",
		"İstanbul", "ǅ", "ß", "ẞ", "Ⱥ", "naïve", "ПРИВЕТ", "東京", "\xff\xfe", "\xe2\x82", "٣"}, fnvCollisions...)
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

// TestWikiExtractMatchesTokenizeReference fails on any drift in what wiki
// extraction returns: for every version, over clean and roughened pages,
// Produced, Useful, Class, the bucket indices and the bits of every value
// equal the reference's.
func TestWikiExtractMatchesTokenizeReference(t *testing.T) {
	ins := identityInputs(t, 2400, 109)
	for v := 1; v <= 8; v++ {
		f := NewWikiFeature(v)
		produced := 0
		for _, in := range ins {
			got, err := f.Extract(in)
			if err != nil {
				t.Fatal(err)
			}
			want := refWikiExtract(f, in)
			if got.Produced != want.Produced || got.Useful != want.Useful || got.Example.Class != want.Example.Class {
				t.Fatalf("v%d input %s: got produced=%v useful=%v class=%d, want %v %v %d", v, in.ID,
					got.Produced, got.Useful, got.Example.Class, want.Produced, want.Useful, want.Example.Class)
			}
			if !got.Produced {
				continue
			}
			produced++
			if got.Example.Features.Dim() != f.FuncDim {
				t.Fatalf("v%d input %s: dim %d", v, in.ID, got.Example.Features.Dim())
			}
			type entry struct {
				i    int
				bits uint64
			}
			var g, w []entry
			got.Example.Features.ForEachNonZero(func(i int, x float64) { g = append(g, entry{i, math.Float64bits(x)}) })
			want.Example.Features.ForEachNonZero(func(i int, x float64) { w = append(w, entry{i, math.Float64bits(x)}) })
			if len(g) != len(w) {
				t.Fatalf("v%d input %s: %d non-zeros, want %d", v, in.ID, len(g), len(w))
			}
			for k := range g {
				if g[k] != w[k] {
					t.Fatalf("v%d input %s: non-zero %d is bucket %d bits %#x, want bucket %d bits %#x",
						v, in.ID, k, g[k].i, g[k].bits, w[k].i, w[k].bits)
				}
			}
		}
		if produced < len(ins)/5 {
			t.Fatalf("v%d: only %d of %d inputs produced; the comparison is not exercising extraction", v, produced, len(ins))
		}
	}
}

// TestMarkerNeedsMatchingBytes: a token that hashes to a marker's state
// but spells something else is an ordinary token — it neither makes the
// page a candidate nor gets the boost.
func TestMarkerNeedsMatchingBytes(t *testing.T) {
	for i, tok := range fnvCollisions {
		marker := []string{"infobox", "career"}[i]
		a, b := index.TokenScanner{Text: tok}, index.TokenScanner{Text: marker}
		if !a.Next() || !b.Next() || a.Hash != b.Hash {
			t.Fatalf("%q no longer collides with %q: the test needs a new collision", tok, marker)
		}
		if isMarker(&a) || hasMarker("w1 "+tok+" w2") {
			t.Fatalf("%q recognised as a marker on its hash alone", tok)
		}
		if !isMarker(&b) || !hasMarker("w1 "+strings.ToUpper(marker)+" w2") {
			t.Fatalf("%q not recognised as a marker", marker)
		}
	}
	f := NewWikiFeature(3)
	in := &corpus.Input{ID: "page-collide", Kind: corpus.TextKind, Text: "w1 infobox w2 " + fnvCollisions[0]}
	res, err := f.Extract(in)
	if err != nil || !res.Produced {
		t.Fatalf("extract: produced=%v err=%v", res.Produced, err)
	}
	// Both tokens land in one bucket: the marker's boost plus a plain 1.
	if got := res.Example.Features.At(index.HashToken("infobox", f.FuncDim)); got != f.MarkerBoost+1 {
		t.Fatalf("bucket shared by marker and collision = %v, want %v", got, f.MarkerBoost+1)
	}
}
