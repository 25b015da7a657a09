package featurepipe

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

func wikiInputs(t testing.TB, n int, seed int64) []*corpus.Input {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

// norm2Sq is the squared Euclidean norm of a feature vector.
func norm2Sq(v learner.FeatureVector) float64 {
	s := 0.0
	v.ForEachNonZero(func(_ int, x float64) { s += x * x })
	return s
}

func TestWikiFeatureExtract(t *testing.T) {
	f := NewWikiFeature(4)
	if f.Dim() != 4096 || f.NumClasses() != 2 || f.Name() != "wiki-v4" {
		t.Fatalf("metadata wrong: %s dim=%d", f.Name(), f.Dim())
	}
	ins := wikiInputs(t, 500, 100)
	produced, useful, relevant := 0, 0, 0
	for _, in := range ins {
		res, err := f.Extract(in)
		if err != nil {
			t.Fatal(err)
		}
		if in.Truth.Relevant {
			relevant++
			if !res.Produced || !res.Useful {
				t.Fatal("relevant page must produce a useful example")
			}
			if res.Example.Class != 1 {
				t.Fatal("relevant label wrong")
			}
		}
		if res.Produced {
			produced++
			if res.Example.Features.Dim() != f.Dim() {
				t.Fatal("feature dim wrong")
			}
			if res.Useful {
				useful++
			}
		}
	}
	if useful != relevant {
		t.Fatalf("useful (%d) should equal relevant (%d) for wiki", useful, relevant)
	}
	// Negative sampling: some but not all irrelevant pages produce.
	if produced <= relevant {
		t.Fatal("no negative examples produced")
	}
	if produced >= len(ins) {
		t.Fatal("every page produced an example; extraction waste missing")
	}
}

func TestWikiFeatureDeterministic(t *testing.T) {
	f := NewWikiFeature(2)
	in := wikiInputs(t, 10, 101)[3]
	a, _ := f.Extract(in)
	b, _ := f.Extract(in)
	if a.Produced != b.Produced || a.Useful != b.Useful {
		t.Fatal("extraction not deterministic")
	}
	if a.Produced && norm2Sq(a.Example.Features) != norm2Sq(b.Example.Features) {
		t.Fatal("feature vectors differ across calls")
	}
}

func TestWikiFeatureVersionsImproveSignal(t *testing.T) {
	// Higher versions boost markers: the marker bucket weight must grow.
	in := &corpus.Input{
		Kind:  corpus.TextKind,
		Text:  "infobox born career w1 w2 w3",
		ID:    "x",
		Truth: corpus.Truth{Relevant: true, Class: 1},
	}
	r3, _ := NewWikiFeature(3).Extract(in)
	r2, _ := NewWikiFeature(2).Extract(in)
	if !r3.Produced || !r2.Produced {
		t.Fatal("marker page must produce")
	}
	if norm2Sq(r3.Example.Features) <= norm2Sq(r2.Example.Features) {
		t.Fatal("marker boost should increase feature mass")
	}
	mustPanic(t, "version", func() { NewWikiFeature(99) })
}

func TestWikiFeatureRejectsNumeric(t *testing.T) {
	f := NewWikiFeature(1)
	if _, err := f.Extract(&corpus.Input{Kind: corpus.NumericKind, Values: []float64{1}}); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestSongFeature(t *testing.T) {
	cfg := corpus.DefaultSongConfig()
	cfg.N = 200
	ins, _ := corpus.GenerateSongs(cfg, rng.New(102))
	v1 := NewSongFeature(1, cfg)
	v2 := NewSongFeature(2, cfg)
	if v1.Dim() != cfg.Dim || v2.Dim() != 2*cfg.Dim {
		t.Fatalf("dims: v1=%d v2=%d", v1.Dim(), v2.Dim())
	}
	for _, in := range ins {
		r1, err := v1.Extract(in)
		if err != nil || !r1.Produced {
			t.Fatal("song extraction failed")
		}
		if r1.Example.Class != in.Truth.Class || r1.Example.Target != in.Truth.Target {
			t.Fatal("labels wrong")
		}
		wantUseful := in.Truth.Class >= cfg.Genres/2
		if r1.Useful != wantUseful {
			t.Fatal("rare-genre usefulness wrong")
		}
		r2, _ := v2.Extract(in)
		if r2.Example.Features.Dim() != 2*cfg.Dim {
			t.Fatal("squares missing")
		}
		// squared features match
		if r2.Example.Features.At(cfg.Dim) != in.Values[0]*in.Values[0] {
			t.Fatal("squared term wrong")
		}
	}
	mustPanic(t, "version", func() { NewSongFeature(3, cfg) })
	if _, err := v1.Extract(&corpus.Input{Kind: corpus.TextKind, Text: "x"}); err == nil {
		t.Fatal("expected kind error")
	}
}

func TestImageFeature(t *testing.T) {
	cfg := corpus.DefaultImageConfig()
	cfg.N = 300
	ins, _ := corpus.GenerateImages(cfg, rng.New(103))
	v1 := NewImageFeature(1, cfg)
	v2 := NewImageFeature(2, cfg)
	posUseful := 0
	for _, in := range ins {
		r1, err := v1.Extract(in)
		if err != nil || !r1.Produced {
			t.Fatal("image extraction failed")
		}
		if r1.Useful {
			posUseful++
			if in.Truth.Class != 1 {
				t.Fatal("useful non-positive")
			}
		}
		r2, _ := v2.Extract(in)
		n := norm2Sq(r2.Example.Features)
		if n > 1.0001 {
			t.Fatalf("v2 should normalize, norm²=%v", n)
		}
	}
	if posUseful == 0 {
		t.Fatal("no useful images found")
	}
	mustPanic(t, "version", func() { NewImageFeature(5, cfg) })
}

func TestCostModel(t *testing.T) {
	c := CostModel{PerInput: 10 * time.Millisecond, PerKB: 2 * time.Millisecond}
	in := &corpus.Input{Kind: corpus.TextKind, Text: strings.Repeat("a", 2048)}
	got := c.Cost(in)
	want := 10*time.Millisecond + 4*time.Millisecond
	if got != want {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
	// Sleep actually blocks.
	cs := CostModel{PerInput: 5 * time.Millisecond, Sleep: true}
	start := time.Now()
	cs.Cost(in)
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("Sleep cost did not block")
	}
}

func newTestTask(t *testing.T, n int, seed int64) *Task {
	t.Helper()
	ins := wikiInputs(t, n, seed)
	f := NewWikiFeature(3)
	task, err := NewTask("wiki", corpus.NewMemStore(ins), f,
		func(ff FeatureFunc) learner.Model {
			return learner.NewMultinomialNB(ff.Dim(), 2, 1)
		},
		learner.MetricF1, 1, CostModel{}, TaskOptions{}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestNewTaskSplit(t *testing.T) {
	task := newTestTask(t, 1000, 104)
	if len(task.PoolIdx)+len(task.HoldoutIdx) != 1000 {
		t.Fatalf("split lost inputs: %d + %d", len(task.PoolIdx), len(task.HoldoutIdx))
	}
	if len(task.HoldoutIdx) < 80 || len(task.HoldoutIdx) > 120 {
		t.Fatalf("holdout size %d, want ~100", len(task.HoldoutIdx))
	}
	seen := map[int]bool{}
	for _, i := range append(append([]int{}, task.PoolIdx...), task.HoldoutIdx...) {
		if seen[i] {
			t.Fatalf("index %d in both pool and holdout", i)
		}
		seen[i] = true
	}
	// Stratified: holdout contains relevant pages.
	rel := 0
	for _, i := range task.HoldoutIdx {
		if task.Store.Get(i).Truth.Relevant {
			rel++
		}
	}
	if rel == 0 {
		t.Fatal("stratified holdout lost the positive class")
	}
	mask := task.PoolSet()
	for _, i := range task.HoldoutIdx {
		if mask[i] {
			t.Fatal("PoolSet includes holdout input")
		}
	}
	for _, i := range task.PoolIdx {
		if !mask[i] {
			t.Fatal("PoolSet missing pool input")
		}
	}
}

func TestBuildHoldout(t *testing.T) {
	task := newTestTask(t, 800, 105)
	h, skips, err := task.BuildHoldoutTolerant()
	if err != nil {
		t.Fatal(err)
	}
	if len(skips) != 0 {
		t.Fatalf("clean corpus skipped %d holdout inputs", len(skips))
	}
	if len(h.Examples) == 0 || len(h.Examples) > len(task.HoldoutIdx) {
		t.Fatalf("holdout examples = %d", len(h.Examples))
	}
	if h.Metric != learner.MetricF1 || h.Positive != 1 {
		t.Fatal("holdout config wrong")
	}
	// Must contain at least one positive example or F1 is meaningless.
	pos := 0
	for _, ex := range h.Examples {
		if ex.Class == 1 {
			pos++
		}
	}
	if pos == 0 {
		t.Fatal("holdout has no positive examples")
	}
}

// TestBuildHoldoutZeroExamplesIsAnError: when every extraction fails the
// build reports each input as a skip and still refuses to return a
// holdout that measures nothing.
func TestBuildHoldoutZeroExamplesIsAnError(t *testing.T) {
	task := newTestTask(t, 300, 106)
	task.Feature = &FaultyFeature{Inner: task.Feature, ErrPct: 100}
	h, skips, err := task.BuildHoldoutTolerant()
	if err == nil || h != nil {
		t.Fatal("expected an error for a holdout of zero examples")
	}
	if len(skips) != len(task.HoldoutIdx) {
		t.Fatalf("skips = %d, want every one of the %d holdout inputs", len(skips), len(task.HoldoutIdx))
	}
}

// unreadableStore panics on Get(bad), like a store over a corrupt record.
type unreadableStore struct {
	corpus.Store
	bad int
}

func (s unreadableStore) Get(i int) *corpus.Input {
	if i == s.bad {
		panic("corrupt record")
	}
	return s.Store.Get(i)
}

// TestExtractHoldoutInputID: the id is the input's own when the read
// succeeded — whether extraction then produced, failed or panicked — and
// "#<idx>" only when the read itself failed; outcomes come back in the
// order of the indices asked for.
func TestExtractHoldoutInputID(t *testing.T) {
	task := newTestTask(t, 300, 108)
	ok, bad := task.HoldoutIdx[0], task.HoldoutIdx[1]
	want := task.Store.Get(ok).ID
	task.Store = unreadableStore{Store: task.Store, bad: bad}

	res, outs := task.ExtractHoldout([]int{bad, ok})
	if outs[1].Reason != "" || outs[1].InputID != want {
		t.Fatalf("clean extract: %+v, want id %q and no reason", outs[1], want)
	}
	if outs[0].Reason == "" || res[0].Produced || outs[0].InputID != fmt.Sprintf("#%d", bad) {
		t.Fatalf("failed read: %+v produced %v, want id #%d and a reason", outs[0], res[0].Produced, bad)
	}
	task.Feature = &FaultyFeature{Inner: task.Feature, PanicPct: 100}
	if _, outs := task.ExtractHoldout([]int{ok}); outs[0].Reason == "" || outs[0].InputID != want {
		t.Fatalf("panicking extract: %+v, want id %q and a reason", outs[0], want)
	}
}

func TestNewTaskValidation(t *testing.T) {
	ins := wikiInputs(t, 50, 107)
	store := corpus.NewMemStore(ins)
	f := NewWikiFeature(1)
	nm := func(ff FeatureFunc) learner.Model { return learner.NewMultinomialNB(ff.Dim(), 2, 1) }
	if _, err := NewTask("x", corpus.NewMemStore(nil), f, nm, learner.MetricF1, 1, CostModel{}, TaskOptions{}, rng.New(1)); err == nil {
		t.Fatal("empty store should fail")
	}
	if _, err := NewTask("x", store, nil, nm, learner.MetricF1, 1, CostModel{}, TaskOptions{}, rng.New(1)); err == nil {
		t.Fatal("nil feature should fail")
	}
	if _, err := NewTask("x", store, f, nil, learner.MetricF1, 1, CostModel{}, TaskOptions{}, rng.New(1)); err == nil {
		t.Fatal("nil model factory should fail")
	}
	if _, err := NewTask("x", store, f, nm, learner.MetricF1, 1, CostModel{}, TaskOptions{HoldoutFrac: 2}, rng.New(1)); err == nil {
		t.Fatal("bad HoldoutFrac should fail")
	}
}

func TestWithFeature(t *testing.T) {
	task := newTestTask(t, 300, 108)
	v5 := NewWikiFeature(5)
	t2 := task.WithFeature(v5)
	if t2.Feature.Name() != "wiki-v5" {
		t.Fatal("WithFeature did not swap feature")
	}
	if task.Feature.Name() == "wiki-v5" {
		t.Fatal("WithFeature mutated original")
	}
	if &task.PoolIdx[0] != &t2.PoolIdx[0] {
		t.Fatal("WithFeature should share the split")
	}
}

func TestFaultyFeature(t *testing.T) {
	inner := NewWikiFeature(1)
	f := &FaultyFeature{Inner: inner, ErrPct: 30, PanicPct: 10}
	if f.Dim() != inner.Dim() || f.NumClasses() != 2 || !strings.Contains(f.Name(), "faults") {
		t.Fatal("wrapper metadata wrong")
	}
	ins := wikiInputs(t, 400, 109)
	errs, panics, ok := 0, 0, 0
	for _, in := range ins {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			if _, err := f.Extract(in); err != nil {
				errs++
			} else {
				ok++
			}
		}()
	}
	if errs == 0 || panics == 0 || ok == 0 {
		t.Fatalf("fault mix wrong: errs=%d panics=%d ok=%d", errs, panics, ok)
	}
	// Deterministic: same input fails the same way.
	var firstErr bool
	for _, in := range ins {
		if _, err := func() (r Result, err error) {
			defer func() { recover() }()
			return f.Extract(in)
		}(); err != nil {
			firstErr = true
			if _, err2 := func() (r Result, err error) {
				defer func() { recover() }()
				return f.Extract(in)
			}(); err2 == nil {
				t.Fatal("fault injection not deterministic")
			}
			break
		}
	}
	if !firstErr {
		t.Fatal("no error found to check determinism")
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
