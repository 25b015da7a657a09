package experiments

import (
	"fmt"
	"io"

	"zombie/internal/core"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
)

// runCacheIterations replays the composite wiki session twice through one
// shared extraction cache: the cold pass populates it, the warm pass
// replays the identical session against it. The results are deterministic
// (the cache only elides recomputation, it never changes an answer).
func runCacheIterations(cfg Config) (cold, warm *core.SessionResult, err error) {
	cfg = cfg.withDefaults()
	wl, err := WikiWorkload(cfg)
	if err != nil {
		return nil, nil, err
	}
	groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	if err != nil {
		return nil, nil, err
	}
	cache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		return nil, nil, err
	}
	defer cache.Close()
	session := featurepipe.CompositeWikiSession()
	eng, err := engineFor("eps-greedy:0.1", cfg.Seed+2, func(c *core.Config) {
		c.Cache = cache
		// Coarse eval cadence: holdout scoring is model work the cache
		// cannot elide, so a tight cadence would dilute the measured
		// extraction speedup. Cold and warm passes share the cadence, so
		// determinism is unaffected.
		c.EvalEvery = 100
		c.EarlyStop = core.EarlyStopConfig{
			Enabled:        true,
			Window:         8,
			SlopeThreshold: 0.002,
			Patience:       2,
			MinInputs:      400,
		}
	})
	if err != nil {
		return nil, nil, err
	}
	cold, err = eng.RunSession(session, wl.Task, groups, true)
	if err != nil {
		return nil, nil, err
	}
	warm, err = eng.RunSession(session, wl.Task, groups, true)
	if err != nil {
		return nil, nil, err
	}
	return cold, warm, nil
}

// sessionsMatch reports whether two session results are observably
// identical: same per-version inputs, qualities, stop reasons, and full
// learning curves. This is the cache determinism contract.
func sessionsMatch(a, b *core.SessionResult) bool {
	if len(a.Iterations) != len(b.Iterations) {
		return false
	}
	for i := range a.Iterations {
		ra, rb := a.Iterations[i].Run, b.Iterations[i].Run
		if ra.InputsProcessed != rb.InputsProcessed || ra.FinalQuality != rb.FinalQuality ||
			ra.Stop != rb.Stop || len(ra.Curve) != len(rb.Curve) {
			return false
		}
		for j := range ra.Curve {
			if ra.Curve[j] != rb.Curve[j] {
				return false
			}
		}
	}
	return true
}

// sessionCacheTraffic sums the extraction-cache hit/miss counters over a
// session's runs.
func sessionCacheTraffic(s *core.SessionResult) (hits, misses int64) {
	for _, it := range s.Iterations {
		hits += it.Run.CacheHits
		misses += it.Run.CacheMisses
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
		s     *core.SessionResult
	}{{"cold", cold}, {"warm", warm}} {
		for _, it := range pass.s.Iterations {
			table.AddRow(pass.label, it.Version,
				d(it.Run.InputsProcessed), f(it.Run.FinalQuality),
				fmt.Sprintf("%d", it.Run.CacheHits), fmt.Sprintf("%d", it.Run.CacheMisses))
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
