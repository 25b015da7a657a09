package featurepipe

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

func TestCompositeFeatureConcatenates(t *testing.T) {
	cfg := corpus.DefaultImageConfig()
	cfg.N = 50
	ins, _ := corpus.GenerateImages(cfg, rng.New(900))
	v1 := NewImageFeature(1, cfg)
	v3 := NewImageFeature(3, cfg)
	comp, err := NewCompositeFeature("img-combo", v1, v3)
	if err != nil {
		t.Fatal(err)
	}
	if comp.Dim() != v1.Dim()+v3.Dim() {
		t.Fatalf("composite dim = %d", comp.Dim())
	}
	if comp.NumClasses() != 2 || comp.Name() != "img-combo" {
		t.Fatal("composite metadata wrong")
	}
	for _, in := range ins[:10] {
		res, err := comp.Extract(in)
		if err != nil || !res.Produced {
			t.Fatal("composite extraction failed")
		}
		r1, _ := v1.Extract(in)
		r3, _ := v3.Extract(in)
		// First block matches part 1, second block matches part 3.
		for d := 0; d < v1.Dim(); d++ {
			if res.Example.Features.At(d) != r1.Example.Features.At(d) {
				t.Fatalf("block 1 mismatch at %d", d)
			}
		}
		for d := 0; d < v3.Dim(); d++ {
			if res.Example.Features.At(v1.Dim()+d) != r3.Example.Features.At(d) {
				t.Fatalf("block 2 mismatch at %d", d)
			}
		}
		if res.Example.Class != in.Truth.Class {
			t.Fatal("composite label wrong")
		}
		if res.Useful != (in.Truth.Class == 1) {
			t.Fatal("composite usefulness wrong")
		}
	}
}

func TestCompositeFeatureSkipsWhenAnyPartSkips(t *testing.T) {
	wcfg := corpus.DefaultWikiConfig()
	wcfg.N = 300
	ins, _ := corpus.GenerateWiki(wcfg, rng.New(901))
	v1 := NewWikiFeature(1)
	v4 := NewWikiFeature(4)
	comp, err := NewCompositeFeature("wiki-combo", v1, v4)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, in := range ins {
		res, err := comp.Extract(in)
		if err != nil {
			t.Fatal(err)
		}
		r1, _ := v1.Extract(in)
		if res.Produced != r1.Produced {
			t.Fatal("composite production should match its parts (same candidate logic)")
		}
		if !res.Produced {
			skipped++
		}
	}
	if skipped == 0 {
		t.Fatal("no skipped inputs; wiki extraction waste missing")
	}
}

func TestCompositeFeatureErrors(t *testing.T) {
	cfg := corpus.DefaultImageConfig()
	v1 := NewImageFeature(1, cfg)
	if _, err := NewCompositeFeature("x", v1); err == nil {
		t.Fatal("single part should fail")
	}
	if _, err := NewCompositeFeature("x", v1, nil); err == nil {
		t.Fatal("nil part should fail")
	}
	scfg := corpus.DefaultSongConfig()
	song := NewSongFeature(1, scfg)
	if _, err := NewCompositeFeature("x", v1, song); err == nil {
		t.Fatal("class-count mismatch should fail")
	}
	comp, err := NewCompositeFeature("x", v1, NewImageFeature(2, cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Part errors propagate with context.
	if _, err := comp.Extract(&corpus.Input{Kind: corpus.TextKind, Text: "t"}); err == nil ||
		!strings.Contains(err.Error(), "image-v1") {
		t.Fatalf("part error not propagated: %v", err)
	}
}

// stubFeature is test feature code: extract computes each result, and
// calls counts the extractions that reached it.
type stubFeature struct {
	FuncCore
	extract func(in *corpus.Input) (Result, error)
	calls   atomic.Int64
}

func (s *stubFeature) Extract(in *corpus.Input) (Result, error) {
	s.calls.Add(1)
	return s.extract(in)
}

// denseTextFeature is a dense part over text inputs with zero and
// non-zero coordinates: the length of the text and of its first word.
func denseTextFeature(name string) *stubFeature {
	return &stubFeature{
		FuncCore: FuncCore{FuncName: name, FuncDim: 4, Classes: 2},
		extract: func(in *corpus.Input) (Result, error) {
			first, _, _ := strings.Cut(in.Text, " ")
			x := []float64{float64(len(in.Text)), 0, float64(len(first)), 0}
			return Result{Example: learner.Example{Features: learner.DenseVec(x), Class: in.Truth.Class}, Produced: true}, nil
		},
	}
}

// referenceAssembly concatenates the parts' vectors the way composite
// assembly did before it copied: one ForEachNonZero callback per
// coordinate, offset by the dimensions before it.
func referenceAssembly(t *testing.T, parts []FeatureFunc, in *corpus.Input) (idx []int, val []float64) {
	t.Helper()
	offset := 0
	for _, p := range parts {
		res, err := p.Extract(in)
		if err != nil || !res.Produced {
			t.Fatalf("reference part %s: produced=%v err=%v", p.Name(), res.Produced, err)
		}
		res.Example.Features.ForEachNonZero(func(i int, x float64) {
			idx = append(idx, offset+i)
			val = append(val, x)
		})
		offset += p.Dim()
	}
	return idx, val
}

// TestCompositeAssemblyMatchesReference: the copy-assembled vector is
// bit-equal to the callback-assembled one, for all-sparse parts and for
// dense parts mixed with sparse ones, cached and uncached.
func TestCompositeAssemblyMatchesReference(t *testing.T) {
	ins := wikiInputs(t, 300, 903)
	for _, parts := range [][]FeatureFunc{
		{NewWikiFeature(2), NewWikiFeature(4), NewWikiFeature(5)},
		{denseTextFeature("dense-a"), NewWikiFeature(4), denseTextFeature("dense-b"), NewWikiFeature(8)},
	} {
		comp, err := NewCompositeFeature("combo", parts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []FeatureFunc{comp, Cached(comp, newTestCache(t), &CacheCounters{})} {
			produced := 0
			for _, in := range ins {
				res, err := f.Extract(in)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Produced {
					continue
				}
				produced++
				fv := res.Example.Features
				if !fv.IsSparse() || fv.Dim() != comp.Dim() {
					t.Fatalf("%s: sparse=%v dim=%d, want a sparse vector of dim %d", in.ID, fv.IsSparse(), fv.Dim(), comp.Dim())
				}
				wantIdx, wantVal := referenceAssembly(t, parts, in)
				var gotIdx []int
				var gotVal []float64
				fv.ForEachNonZero(func(i int, x float64) {
					gotIdx = append(gotIdx, i)
					gotVal = append(gotVal, x)
				})
				if len(gotIdx) != len(wantIdx) || fv.NNZ() != len(wantIdx) {
					t.Fatalf("%s: %d non-zeros (NNZ %d), reference has %d", in.ID, len(gotIdx), fv.NNZ(), len(wantIdx))
				}
				for k := range wantIdx {
					if gotIdx[k] != wantIdx[k] || math.Float64bits(gotVal[k]) != math.Float64bits(wantVal[k]) {
						t.Fatalf("%s entry %d: (%d, %v), reference (%d, %v)", in.ID, k, gotIdx[k], gotVal[k], wantIdx[k], wantVal[k])
					}
				}
			}
			if produced == 0 {
				t.Fatal("no input produced an example")
			}
		}
	}
}

// TestCompositeStopsAtFirstFailingPart: a part that errors or produces
// nothing ends the composite before later parts run, so through the cache
// the later parts count neither a hit nor a miss. Over two calls the wiki
// part misses then hits; the stopping part counts only when it returns a
// result, which is cached even when it produced nothing.
func TestCompositeStopsAtFirstFailingPart(t *testing.T) {
	for _, c := range []struct {
		name                 string
		err                  error
		wantHits, wantMisses int64
		wantParts            string
	}{
		{"nothing produced", nil, 2, 2, "stop,wiki-v4"},
		{"error", fmt.Errorf("part failed"), 1, 1, "wiki-v4"},
	} {
		stop := &stubFeature{
			FuncCore: FuncCore{FuncName: "stop", FuncDim: 2, Classes: 2},
			extract:  func(*corpus.Input) (Result, error) { return Result{}, c.err },
		}
		later := denseTextFeature("later")
		comp, err := NewCompositeFeature("combo", NewWikiFeature(4), stop, later)
		if err != nil {
			t.Fatal(err)
		}
		var ctrs CacheCounters
		cached := Cached(comp, newTestCache(t), &ctrs)
		for i := 0; i < 2; i++ {
			res, err := cached.Extract(markerInput("p"))
			if (err != nil) != (c.err != nil) || res.Produced {
				t.Fatalf("%s, call %d: produced=%v err=%v", c.name, i, res.Produced, err)
			}
		}
		if n := later.calls.Load(); n != 0 {
			t.Fatalf("%s: the part after the failing one ran %d times", c.name, n)
		}
		if h, m := ctrs.Hits.Load(), ctrs.Misses.Load(); h != c.wantHits || m != c.wantMisses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", c.name, h, m, c.wantHits, c.wantMisses)
		}
		var names []string
		for _, p := range ctrs.Parts() {
			names = append(names, p.Part)
		}
		if got := strings.Join(names, ","); got != c.wantParts {
			t.Fatalf("%s: parts with traffic %q", c.name, got)
		}
	}
}
