package core

import (
	"strings"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
)

func mustCache(t *testing.T, cfg featcache.Config) *featcache.Cache {
	t.Helper()
	c, err := featcache.Open(cfg, featurepipe.ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// identicalRuns asserts two results are byte-identical in everything the
// experiment tables and curve output are built from.
func identicalRuns(t *testing.T, label string, a, b tracedRun) {
	t.Helper()
	if a.InputsProcessed != b.InputsProcessed || a.FinalQuality != b.FinalQuality ||
		a.Produced != b.Produced || a.Useful != b.Useful || a.Errors != b.Errors ||
		a.SimTime != b.SimTime || a.Stop != b.Stop {
		t.Fatalf("%s: summaries differ:\n%s\n%s", label, a.Summary(), b.Summary())
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("%s: curve lengths %d vs %d", label, len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("%s: curve diverged at %d: %+v vs %+v", label, i, a.Curve[i], b.Curve[i])
		}
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		// CacheHit is a cache-traffic diagnostic, like the RunResult
		// counters: it legitimately differs between cache-off, cold and
		// warm runs and is excluded from the determinism contract.
		ea.CacheHit, eb.CacheHit = false, false
		if ea != eb {
			t.Fatalf("%s: events diverged at step %d: %+v vs %+v", label, i, ea, eb)
		}
	}
}

// TestCacheRunsAreByteIdentical is the determinism contract of the
// extraction cache: the same run without a cache, with a cold cache, and
// with a warm cache must produce identical curves, traces and counters —
// only the cache-traffic diagnostics may differ.
func TestCacheRunsAreByteIdentical(t *testing.T) {
	task, groups := wikiTask(t, 1200, 230)
	cfg := Config{Seed: 11, MaxInputs: 300}

	base, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if base.CacheHits != 0 || base.CacheMisses != 0 {
		t.Fatal("cacheless run reported cache traffic")
	}

	cache := mustCache(t, featcache.Config{})
	cfgCached := cfg
	cfgCached.Cache = cache
	cold, err := runTraced(t, cfgCached, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	identicalRuns(t, "off-vs-cold", base, cold)
	if cold.CacheMisses == 0 {
		t.Fatal("cold run recorded no misses")
	}

	warm, err := runTraced(t, cfgCached, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	identicalRuns(t, "off-vs-warm", base, warm)
	if warm.CacheHits == 0 {
		t.Fatal("warm run recorded no hits")
	}
	if warm.CacheMisses >= cold.CacheMisses {
		t.Fatalf("warm misses (%d) should drop below cold (%d)", warm.CacheMisses, cold.CacheMisses)
	}
}

// TestCacheSharedAcrossSessionVersions mirrors the engineering-session
// pattern the cache exists for: successive composite versions sharing
// parts reuse the shared parts' extractions run over run.
func TestCacheSharedAcrossSessionVersions(t *testing.T) {
	task, groups := wikiTask(t, 900, 231)
	version := func(name string, top int) featurepipe.FeatureFunc {
		c, err := featurepipe.NewCompositeFeature(name,
			featurepipe.NewWikiFeature(2), featurepipe.NewWikiFeature(4), featurepipe.NewWikiFeature(top))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	cache := mustCache(t, featcache.Config{})
	e := mustEngine(t, Config{Seed: 13, MaxInputs: 200, Cache: cache})

	v1, err := e.Run(task.WithFeature(version("cwiki-v1", 5)), groups)
	if err != nil {
		t.Fatal(err)
	}
	if v1.CacheHits != 0 {
		t.Fatalf("first version hit a cold cache %d times", v1.CacheHits)
	}
	v2, err := e.Run(task.WithFeature(version("cwiki-v2", 6)), groups)
	if err != nil {
		t.Fatal(err)
	}
	// v2 shares two of three parts with v1 and the run replays the same
	// pool prefix (same seed and policy), so most extractions must hit.
	if v2.CacheHits <= v2.CacheMisses {
		t.Fatalf("edited version reused too little: hits=%d misses=%d", v2.CacheHits, v2.CacheMisses)
	}
}

// TestSafeExtractNamesFeatureAndInput pins the panic-isolation message:
// trace rows must identify which input crashed which feature-code version.
func TestSafeExtractNamesFeatureAndInput(t *testing.T) {
	f := &featurepipe.FaultyFeature{Inner: featurepipe.NewWikiFeature(2), PanicPct: 100}
	in := &corpus.Input{Kind: corpus.TextKind, ID: "page-042", Text: "infobox born text"}
	_, err, panicked := SafeExtract(f, in)
	if err == nil || !panicked {
		t.Fatal("panic not converted to an error")
	}
	for _, want := range []string{"wiki-v2+faults", "page-042", "injected panic"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
	// The same message must reach the run's step trace.
	task, groups := wikiTask(t, 800, 232)
	exempt := map[string]bool{}
	for _, i := range task.HoldoutIdx {
		exempt[task.Store.Get(i).ID] = true
	}
	task.Feature = &featurepipe.FaultyFeature{Inner: task.Feature, PanicPct: 20, Exempt: exempt}
	res, err := runTraced(t, Config{Seed: 23, MaxInputs: 300}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, ev := range res.Events {
		if ev.Err == "" {
			continue
		}
		seen = true
		if !strings.Contains(ev.Err, "wiki-v3+faults") || !strings.Contains(ev.Err, "panicked on input") {
			t.Fatalf("trace error lacks context: %q", ev.Err)
		}
	}
	if !seen {
		t.Fatal("no panic rows in trace")
	}
}
