package recipe

import (
	"context"
	"reflect"
	"testing"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

func wikiFixture(t testing.TB, n int, seed int64) (*featurepipe.Task, *index.Groups) {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	task, grouper, err := workload.Build("wiki", store, 0, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	groups, err := grouper.Group(store, 8, rng.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	return task, groups
}

func testEngineConfig(cache *featcache.Cache) core.Config {
	return core.Config{
		Policy:    "eps-greedy:0.1",
		Seed:      5,
		MaxInputs: 120,
		EvalEvery: 25,
		Cache:     cache,
	}
}

func TestSessionEditOnePart(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	cache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("edit", task, groups, Config{Engine: testEngineConfig(cache), Decay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	v1r, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit(context.Background(), v1r)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Index != 1 || v1.WarmStart.Applied {
		t.Fatalf("v1 = index %d applied %v, want 1/false", v1.Index, v1.WarmStart.Applied)
	}
	edited := wikiParts()
	edited[2].Version = 6
	v2r, err := New("rec", edited)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s.Submit(context.Background(), v2r)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.WarmStart.Applied || v2.WarmStart.SeededPulls == 0 {
		t.Fatalf("v2 warm start = %+v, want applied with pulls", v2.WarmStart)
	}
	if v2.Run.WarmStartPulls != v2.WarmStart.SeededPulls {
		t.Fatal("session warm-start stats disagree with the run result")
	}
	if got := v2.Diff.Changed; !reflect.DeepEqual(got, []string{"top"}) {
		t.Fatalf("v2 diff changed = %v, want [top]", got)
	}
	if v2.Diff.SharedParts != 2 {
		t.Fatalf("v2 shared parts = %d, want 2", v2.Diff.SharedParts)
	}
	// The two unchanged parts were extracted under v1, so v2's run must
	// hit the part-level cache.
	if v2.Run.CacheHits == 0 {
		t.Fatal("v2 run saw no cache hits despite two unchanged parts")
	}
}

// TestSessionUnchangedRecipeFullReuse pins the acceptance contract: an
// unchanged recipe version gets every part extraction from the cache —
// zero misses.
func TestSessionUnchangedRecipeFullReuse(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	cache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession("same", task, groups, Config{Engine: testEngineConfig(cache), Decay: 0})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	v1, err := s.Submit(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Run.CacheMisses == 0 {
		t.Fatal("cold v1 should miss the cache")
	}
	v2, err := s.Submit(context.Background(), rec)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Run.CacheMisses != 0 {
		t.Fatalf("unchanged recipe re-run missed the cache %d times, want 0", v2.Run.CacheMisses)
	}
	if v2.Run.CacheHits == 0 {
		t.Fatal("unchanged recipe re-run recorded no cache hits")
	}
	if v2.Diff.SharedParts != v2.Diff.TotalParts {
		t.Fatalf("unchanged recipe shared %d/%d parts", v2.Diff.SharedParts, v2.Diff.TotalParts)
	}
}

// TestSessionZeroDecayIdentity pins the session-level identity contract:
// with decay 0 a later version's run is byte-identical to running the
// same recipe cold, snapshots or not.
func TestSessionZeroDecayIdentity(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	edited := wikiParts()
	edited[2].Version = 6
	v2r, err := New("rec", edited)
	if err != nil {
		t.Fatal(err)
	}

	// Cold: a fresh session running only v2.
	coldSess, err := NewSession("cold", task, groups, Config{Engine: testEngineConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := coldSess.Submit(context.Background(), v2r)
	if err != nil {
		t.Fatal(err)
	}

	// Decay 0: v1 then v2 in one session; v2 must match cold exactly.
	zeroSess, err := NewSession("zero", task, groups, Config{Engine: testEngineConfig(nil), Decay: 0})
	if err != nil {
		t.Fatal(err)
	}
	v1r, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zeroSess.Submit(context.Background(), v1r); err != nil {
		t.Fatal(err)
	}
	warm0, err := zeroSess.Submit(context.Background(), v2r)
	if err != nil {
		t.Fatal(err)
	}
	a, b := *cold.Run, *warm0.Run
	a.WallTime, b.WallTime = 0, 0
	a.Phases, b.Phases = core.PhaseBreakdown{}, core.PhaseBreakdown{}
	if !reflect.DeepEqual(&a, &b) {
		t.Fatal("decay=0 session v2 differs from cold run of the same recipe")
	}
}

func TestSessionRejectsClassMismatch(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	s, err := NewSession("mismatch", task, groups, Config{Engine: testEngineConfig(nil)})
	if err != nil {
		t.Fatal(err)
	}
	songRec, err := New("songs", []Part{{Name: "a", Kind: "song"}, {Name: "b", Kind: "song", Version: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(context.Background(), songRec); err == nil {
		t.Fatal("song recipe against wiki task: want class-mismatch error")
	}
}

// TestSessionSkipsVersionsWithoutVerdict: a cancelled version is not
// recorded, so the next version diffs against and warm-starts from the
// last version that reached a verdict — exactly as if the cancelled one
// had never been submitted.
func TestSessionSkipsVersionsWithoutVerdict(t *testing.T) {
	task, groups := wikiFixture(t, 400, 31)
	v1r, err := New("rec", wikiParts())
	if err != nil {
		t.Fatal(err)
	}
	edited := wikiParts()
	edited[2].Version = 6
	v2r, err := New("rec", edited)
	if err != nil {
		t.Fatal(err)
	}
	run := func(cancelFirst bool) *Version {
		s, err := NewSession("skip", task, groups, Config{Engine: testEngineConfig(nil), Decay: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit(context.Background(), v1r); err != nil {
			t.Fatal(err)
		}
		if cancelFirst {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			v, err := s.Submit(ctx, v2r)
			if err != nil || v.Run.Stop != core.StopCancelled {
				t.Fatalf("cancelled submit: %v, %+v", err, v)
			}
		}
		v, err := s.Submit(context.Background(), v2r)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Versions()) != 2 {
			t.Fatalf("session recorded %d versions, want 2", len(s.Versions()))
		}
		return v
	}
	want, got := run(false), run(true)
	if !reflect.DeepEqual(got.Diff, want.Diff) || got.WarmStart != want.WarmStart ||
		!reflect.DeepEqual(got.Run.Curve, want.Run.Curve) || !reflect.DeepEqual(got.Run.Arms, want.Run.Arms) {
		t.Fatalf("version after a cancelled one did not build on v1:\n got  %+v %+v\n want %+v %+v",
			got.Diff, got.WarmStart, want.Diff, want.WarmStart)
	}
}
