package core

import (
	"testing"
	"time"

	"zombie/internal/featcache"
	"zombie/internal/obs"
	"zombie/internal/trace"
)

// TestPhaseBreakdownCoversRun is the telemetry contract: on a real
// workload the six disjoint phases must explain at least 90% of the
// run's wall time, and never more than all of it. The run goes to
// exhaustion over 16 000 inputs, about a quarter of a second on two cores,
// and the floor holds for the best of three runs, so what a loaded
// machine adds outside the phases is a small share of the wall; an
// untimed phase in the loop still fails it.
func TestPhaseBreakdownCoversRun(t *testing.T) {
	task, groups := wikiTask(t, 16000, 501)
	best := 0.0
	var bestRes *RunResult
	for i := 0; i < 3; i++ {
		res, err := mustEngine(t, Config{Seed: 41}).Run(task, groups)
		if err != nil {
			t.Fatal(err)
		}
		p := res.Phases
		for name, d := range p.Millis() {
			if d < 0 {
				t.Fatalf("phase %s negative: %v", name, d)
			}
		}
		if p.Holdout <= 0 || p.Extract <= 0 || p.Train <= 0 || p.Eval <= 0 {
			t.Fatalf("expected holdout/extract/train/eval all > 0: %+v", p)
		}
		if p.Accounted() > res.WallTime {
			t.Fatalf("accounted %v exceeds wall %v", p.Accounted(), res.WallTime)
		}
		if p.CacheLookup != 0 {
			t.Fatalf("cacheless run reported cache-lookup time %v", p.CacheLookup)
		}
		if cov := p.Coverage(res.WallTime); bestRes == nil || cov > best {
			best, bestRes = cov, res
		}
	}
	if best < 0.9 {
		t.Fatalf("best phase coverage of 3 runs %.3f < 0.9 (accounted %v of wall %v; %+v)",
			best, bestRes.Phases.Accounted(), bestRes.WallTime, bestRes.Phases)
	}
}

// TestPhasesAreObservational: attaching a registry must not change the
// run — curves, counters and events stay byte-identical — while the
// registry fills the phase and run histograms.
func TestPhasesAreObservational(t *testing.T) {
	task, groups := wikiTask(t, 1000, 502)
	cfg := Config{Seed: 43, MaxInputs: 250}
	plain, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	observed, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	identicalRuns(t, "obs-off-vs-on", plain, observed)

	flat := reg.FlatSnapshot()
	if n := flat["zombie_run_seconds_count"]; n != 1 {
		t.Fatalf("zombie_run_seconds count = %d, want 1", n)
	}
	for _, phase := range []string{"holdout", "extract", "train", "eval"} {
		if n := flat["zombie_phase_seconds_"+phase+"_count"]; n <= 0 {
			t.Fatalf("phase %s histogram empty", phase)
		}
	}
}

// TestEventCallbackSeesEveryStep: Config.Event is the engine's only step
// channel, so it must fire once per processed input, in step order, and
// replay identically.
func TestEventCallbackSeesEveryStep(t *testing.T) {
	task, groups := wikiTask(t, 1000, 503)
	cfg := Config{Seed: 47, MaxInputs: 200}

	var streamed []trace.Event
	cfg.Event = func(ev trace.Event) { streamed = append(streamed, ev) }
	res, err := mustEngine(t, cfg).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != res.InputsProcessed {
		t.Fatalf("callback saw %d events, processed %d inputs", len(streamed), res.InputsProcessed)
	}

	traced, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(traced.Events) != len(streamed) {
		t.Fatalf("trace has %d events, callback saw %d", len(traced.Events), len(streamed))
	}
	for i := range streamed {
		if streamed[i].Step != i+1 {
			t.Fatalf("event %d is step %d", i, streamed[i].Step)
		}
		if streamed[i] != traced.Events[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, streamed[i], traced.Events[i])
		}
	}
}

// TestCacheLookupPhaseAndHitFlags: a warm cached run must attribute
// lookup overhead to CacheLookup (bounded by the phases it overlaps)
// and flag its hit steps in the trace; cache-off runs report neither.
func TestCacheLookupPhaseAndHitFlags(t *testing.T) {
	task, groups := wikiTask(t, 900, 504)
	cache := mustCache(t, featcache.Config{})
	cfg := Config{Seed: 53, MaxInputs: 200, Cache: cache}

	cold, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits == 0 {
		t.Fatal("warm run had no cache hits")
	}
	if warm.Phases.CacheLookup <= 0 {
		t.Fatal("warm run reported zero cache-lookup time")
	}
	if max := warm.Phases.Extract + warm.Phases.Holdout; warm.Phases.CacheLookup > max {
		t.Fatalf("cache-lookup %v exceeds the phases it overlaps (%v)",
			warm.Phases.CacheLookup, max)
	}
	hitSteps := func(r tracedRun) int {
		n := 0
		for _, ev := range r.Events {
			if ev.CacheHit {
				n++
			}
		}
		return n
	}
	// Cold runs may still flag a few steps (the holdout build warms the
	// cache for inputs the loop later revisits); the warm run must flag
	// strictly more.
	if warmHits, coldHits := hitSteps(warm), hitSteps(cold); warmHits == 0 || warmHits <= coldHits {
		t.Fatalf("warm run flagged %d hit steps, cold flagged %d", warmHits, coldHits)
	}
}

// TestPhaseBreakdownHelpers pins the pure accessors.
func TestPhaseBreakdownHelpers(t *testing.T) {
	p := PhaseBreakdown{
		Holdout: 1 * time.Millisecond,
		Select:  2 * time.Millisecond,
		Read:    3 * time.Millisecond,
		Extract: 4 * time.Millisecond,
		Train:   5 * time.Millisecond,
		Eval:    6 * time.Millisecond,
		RPC:     7 * time.Millisecond,
		// CacheLookup overlaps Extract/Holdout and must not count.
		CacheLookup: 100 * time.Millisecond,
	}
	if got := p.Accounted(); got != 28*time.Millisecond {
		t.Fatalf("Accounted = %v", got)
	}
	if got := p.Coverage(56 * time.Millisecond); got != 0.5 {
		t.Fatalf("Coverage = %v", got)
	}
	if got := p.Coverage(0); got != 0 {
		t.Fatalf("Coverage(0) = %v", got)
	}
	ms := p.Millis()
	if len(ms) != 7 || ms["extract"] != 4 || ms["eval"] != 6 || ms["rpc"] != 7 {
		t.Fatalf("Millis = %v", ms)
	}
}
