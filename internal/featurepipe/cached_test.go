package featurepipe

import (
	"strings"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/learner"
)

// markerInput is a text input every wiki feature version produces an
// example for (it carries entity markers), so composite parts all fire.
func markerInput(id string) *corpus.Input {
	return &corpus.Input{
		Kind:  corpus.TextKind,
		ID:    id,
		Text:  "infobox born career alpha beta gamma delta",
		Truth: corpus.Truth{Relevant: true, Class: 1},
	}
}

func newTestCache(t *testing.T) *featcache.Cache {
	t.Helper()
	c, err := featcache.Open(featcache.Config{}, ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sameResult(a, b Result) bool {
	if a.Produced != b.Produced || a.Useful != b.Useful {
		return false
	}
	if !a.Produced {
		return true
	}
	if a.Example.Class != b.Example.Class || a.Example.Target != b.Example.Target {
		return false
	}
	if a.Example.Features.Dim() != b.Example.Features.Dim() {
		return false
	}
	for d := 0; d < a.Example.Features.Dim(); d++ {
		if a.Example.Features.At(d) != b.Example.Features.At(d) {
			return false
		}
	}
	return true
}

func TestCachedTransparentAndCounts(t *testing.T) {
	cache := newTestCache(t)
	inner := NewWikiFeature(4)
	var ctrs CacheCounters
	f := Cached(inner, cache, &ctrs)
	if f.Name() != inner.Name() || f.Dim() != inner.Dim() || f.NumClasses() != inner.NumClasses() {
		t.Fatal("cached wrapper must not change feature metadata")
	}
	if FingerprintOf(f) != FingerprintOf(inner) {
		t.Fatal("cached wrapper must keep the inner fingerprint")
	}
	if Cached(inner, nil, &ctrs) != FeatureFunc(inner) {
		t.Fatal("nil cache must return the feature unchanged")
	}

	in := markerInput("p1")
	fresh, err := inner.Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	first, err := f.Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	second, err := f.Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(fresh, first) || !sameResult(fresh, second) {
		t.Fatal("cached extraction differs from fresh extraction")
	}
	if h, m := ctrs.Hits.Load(), ctrs.Misses.Load(); h != 1 || m != 1 {
		t.Fatalf("counters hits=%d misses=%d, want 1/1", h, m)
	}
}

func TestCachedCompositePartLevelReuse(t *testing.T) {
	// v1 and v2 share two of three parts; after running v1, a v2 extraction
	// over the same input recomputes only the edited part.
	cache := newTestCache(t)
	mk := func(name string, parts ...FeatureFunc) *CompositeFeature {
		c, err := NewCompositeFeature(name, parts...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	v1 := mk("combo-v1", NewWikiFeature(2), NewWikiFeature(4), NewWikiFeature(5))
	v2 := mk("combo-v2", NewWikiFeature(2), NewWikiFeature(4), NewWikiFeature(6))

	var c1, c2 CacheCounters
	in := markerInput("page")
	if _, err := Cached(v1, cache, &c1).Extract(in); err != nil {
		t.Fatal(err)
	}
	if h, m := c1.Hits.Load(), c1.Misses.Load(); h != 0 || m != 3 {
		t.Fatalf("cold composite: hits=%d misses=%d, want 0/3", h, m)
	}
	cachedV2 := Cached(v2, cache, &c2)
	got, err := cachedV2.Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := c2.Hits.Load(), c2.Misses.Load(); h != 2 || m != 1 {
		t.Fatalf("edited composite: hits=%d misses=%d, want 2/1 (shared parts reused)", h, m)
	}
	fresh, err := v2.Extract(in)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(fresh, got) {
		t.Fatal("part-cached composite result differs from fresh extraction")
	}
	// The composite wrapper stays a CompositeFeature (assembly is not
	// cached), so metadata and skip logic are untouched.
	if cachedV2.Name() != "combo-v2" || cachedV2.Dim() != v2.Dim() {
		t.Fatal("cached composite metadata wrong")
	}
}

func TestCachedErrorsAndPanicsPassThrough(t *testing.T) {
	cache := newTestCache(t)
	in := markerInput("boom")

	var ctrs CacheCounters
	erring := Cached(&FaultyFeature{Inner: NewWikiFeature(1), ErrPct: 100}, cache, &ctrs)
	for i := 0; i < 2; i++ {
		if _, err := erring.Extract(in); err == nil || !strings.Contains(err.Error(), "injected error") {
			t.Fatalf("call %d: err = %v, want injected error every time (errors not cached)", i, err)
		}
	}
	if ctrs.Hits.Load() != 0 || ctrs.Misses.Load() != 0 {
		t.Fatal("failed extractions must not count as cache traffic")
	}

	panicking := Cached(&FaultyFeature{Inner: NewWikiFeature(1), PanicPct: 100}, cache, nil)
	defer func() {
		p := recover()
		if p == nil || !strings.Contains(p.(string), "injected panic") {
			t.Fatalf("panic = %v, want the feature code's own panic value", p)
		}
	}()
	panicking.Extract(in)
}

// badDimFeature declares Dim 4 but produces 1-dimensional vectors — the
// kind of bug composite assembly must reject rather than silently
// misalign feature blocks.
type badDimFeature struct{ FuncCore }

func (b *badDimFeature) Extract(in *corpus.Input) (Result, error) {
	return Result{
		Produced: true,
		Example:  learner.Example{Features: learner.DenseVec([]float64{1})},
	}, nil
}

func TestCompositePartDimMismatch(t *testing.T) {
	bad := &badDimFeature{FuncCore{FuncName: "bad-dim", FuncDim: 4, Classes: 2}}
	comp, err := NewCompositeFeature("combo", bad, NewWikiFeature(1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = comp.Extract(markerInput("x"))
	if err == nil || !strings.Contains(err.Error(), "produced dim 1, declared 4") ||
		!strings.Contains(err.Error(), "bad-dim") {
		t.Fatalf("err = %v, want part dim-mismatch naming the part", err)
	}
}

func TestFingerprintsDistinguishVersions(t *testing.T) {
	seen := map[string]string{}
	for v := 1; v <= 8; v++ {
		f := NewWikiFeature(v)
		fp := FingerprintOf(f)
		if fp == "" {
			t.Fatalf("wiki-v%d: empty fingerprint", v)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("wiki-v%d collides with %s", v, prev)
		}
		seen[fp] = f.Name()
		if FingerprintOf(NewWikiFeature(v)) != fp {
			t.Fatalf("wiki-v%d: fingerprint not stable", v)
		}
	}
	// Fault injection changes behavior, so it must change the fingerprint.
	inner := NewWikiFeature(3)
	faulty := &FaultyFeature{Inner: inner, ErrPct: 10}
	if FingerprintOf(faulty) == FingerprintOf(inner) {
		t.Fatal("faulty wrapper shares the inner fingerprint")
	}
	// Composites: editing one part changes the composite fingerprint but
	// not the untouched parts'.
	a, _ := NewCompositeFeature("c", NewWikiFeature(2), NewWikiFeature(4))
	b, _ := NewCompositeFeature("c", NewWikiFeature(2), NewWikiFeature(5))
	if FingerprintOf(a) == FingerprintOf(b) {
		t.Fatal("edited composite keeps its fingerprint")
	}
	if FingerprintOf(a.parts[0]) != FingerprintOf(b.parts[0]) {
		t.Fatal("untouched part fingerprint drifted")
	}
	// The fallback path covers types without Fingerprinter.
	if FingerprintOf(&badDimFeature{FuncCore{FuncName: "x", FuncDim: 1, Classes: 2}}) == "" {
		t.Fatal("fallback fingerprint empty")
	}
}
