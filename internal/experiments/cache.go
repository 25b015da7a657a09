package experiments

import (
	"fmt"
	"io"
	"slices"

	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/recipe"
)

// wikiChain is the three-part composite wiki recipe the C1 and S1
// sessions edit, at the given part versions. The chain base → mid → top
// fixes the compiled part order. The name is the composite feature's
// name, which each run's RNG labels carry.
func wikiChain(name string, base, mid, top int) *recipe.Recipe {
	r, err := recipe.New(name, []recipe.Part{
		{Name: "base", Kind: "wiki", Version: base},
		{Name: "mid", Kind: "wiki", Version: mid, Deps: []string{"base"}},
		{Name: "top", Kind: "wiki", Version: top, Deps: []string{"mid"}},
	})
	if err != nil {
		panic(err) // static construction cannot fail
	}
	return r
}

// cacheRecipes is the composite wiki session C1 replays: four versions,
// one part edited per step — the session shape under which part-level
// extraction caching pays, since two thirds of every version's
// extraction work was already computed by the previous one.
func cacheRecipes() []*recipe.Recipe {
	return []*recipe.Recipe{
		wikiChain("cwiki-v1", 2, 4, 5), wikiChain("cwiki-v2", 2, 4, 6),
		wikiChain("cwiki-v3", 3, 4, 6), wikiChain("cwiki-v4", 3, 4, 8),
	}
}

// runCacheIterations replays the composite wiki session twice through one
// shared extraction cache: the cold pass populates it, the warm pass
// replays the identical session against it. The results are deterministic
// (the cache only elides recomputation, it never changes an answer).
func runCacheIterations(cfg Config) (cold, warm []*recipe.Version, err error) {
	cfg = cfg.withDefaults()
	r, err := defaultRow(cfg, WikiWorkload)
	if err != nil {
		return nil, nil, err
	}
	cache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		return nil, nil, err
	}
	defer cache.Close()
	engCfg := sessionConfig(cfg.Seed + 2)
	engCfg.Cache = cache
	// Coarse eval cadence: holdout scoring is model work the cache cannot
	// elide, so a tight cadence would dilute the measured extraction
	// speedup. Cold and warm passes share the cadence, so determinism is
	// unaffected.
	engCfg.EvalEvery = 100
	if cold, err = recipe.Replay("cold", r.wl.Task, r.groups, recipe.Config{Engine: engCfg}, cacheRecipes()...); err != nil {
		return nil, nil, err
	}
	if warm, err = recipe.Replay("warm", r.wl.Task, r.groups, recipe.Config{Engine: engCfg}, cacheRecipes()...); err != nil {
		return nil, nil, err
	}
	return cold, warm, nil
}

// sessionsMatch reports whether two session passes are observably
// identical: same per-version inputs, qualities, stop reasons, and full
// learning curves. This is the cache determinism contract.
func sessionsMatch(a, b []*recipe.Version) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ra, rb := a[i].Run, b[i].Run
		if ra.InputsProcessed != rb.InputsProcessed || ra.FinalQuality != rb.FinalQuality ||
			ra.Stop != rb.Stop || !slices.Equal(ra.Curve, rb.Curve) {
			return false
		}
	}
	return true
}

// sessionCacheTraffic sums the extraction-cache hit/miss counters over a
// session's runs.
func sessionCacheTraffic(versions []*recipe.Version) (hits, misses int64) {
	for _, v := range versions {
		hits += v.Run.CacheHits
		misses += v.Run.CacheMisses
	}
	return hits, misses
}

// C1CacheWarm exercises the extraction cache over the composite wiki
// session (an extension beyond the paper): four feature versions of three
// parts each, one part edited per step. The cold pass shows part-level
// reuse across versions (shared parts hit even on first contact with a
// version); the warm replay serves every extraction from cache and must
// reproduce the cold curves exactly. Wall-clock timings deliberately stay
// out of this table — the benchmark's wiki_session workload carries them.
func C1CacheWarm(cfg Config, w io.Writer) error {
	cold, warm, err := runCacheIterations(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "C1",
		Title:  "Extraction-cache warm iteration (composite wiki session, 4 versions x 3 parts)",
		Header: []string{"iteration", "version", "inputs", "quality", "cache-hits", "cache-misses"},
	}
	for _, pass := range []struct {
		label string
		s     []*recipe.Version
	}{{"cold", cold}, {"warm", warm}} {
		for _, v := range pass.s {
			table.AddRow(pass.label, v.Recipe.Name(),
				d(v.Run.InputsProcessed), f(v.Run.FinalQuality),
				fmt.Sprintf("%d", v.Run.CacheHits), fmt.Sprintf("%d", v.Run.CacheMisses))
		}
	}
	coldHits, coldMisses := sessionCacheTraffic(cold)
	warmHits, warmMisses := sessionCacheTraffic(warm)
	table.Notes = append(table.Notes,
		fmt.Sprintf("cold pass: %d hits / %d misses (hits = parts shared with earlier versions)", coldHits, coldMisses),
		fmt.Sprintf("warm pass: %d hits / %d misses", warmHits, warmMisses),
		fmt.Sprintf("warm curves identical to cold: %t", sessionsMatch(cold, warm)),
	)
	return table.Fprint(w)
}
