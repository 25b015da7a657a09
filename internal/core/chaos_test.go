package core

import (
	"math"
	"strings"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/fault"
	"zombie/internal/featcache"
)

// mustInjector parses a fault spec or fails the test.
func mustInjector(t *testing.T, spec string, seed int64) *fault.Injector {
	t.Helper()
	inj, err := fault.Parse(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

// TestFaultedRunQuarantinesAndCompletes is the tentpole contract: a run
// over a corpus where a meaningful fraction of inputs fail (injected
// extraction errors and panics plus corpus read errors) completes with
// partial damage recorded as quarantine entries, not an abort.
func TestFaultedRunQuarantinesAndCompletes(t *testing.T) {
	task, groups := wikiTask(t, 1200, 301)
	inj := mustInjector(t, "extract:err=0.04,panic=0.05;corpus.read:err=0.04", 7)
	e := mustEngine(t, Config{Seed: 31, MaxInputs: 400, Faults: inj})
	res, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop == StopFailed {
		t.Fatalf("sub-budget fault rates degraded the run: %s", res.Summary())
	}
	if res.InputsProcessed != 400 {
		t.Fatalf("faults truncated the run: %d", res.InputsProcessed)
	}
	var extractQ, corpusQ int
	for _, q := range res.Quarantined {
		switch q.Site {
		case string(fault.SiteExtract):
			extractQ++
			if q.InputID == "" || q.Step == 0 || !strings.Contains(q.Reason, "panicked") {
				t.Fatalf("extract quarantine malformed: %+v", q)
			}
		case string(fault.SiteCorpusRead):
			corpusQ++
			if !strings.HasPrefix(q.InputID, "#") || q.Step == 0 {
				t.Fatalf("corpus quarantine malformed: %+v", q)
			}
		case "holdout":
			if q.Step != 0 {
				t.Fatalf("holdout quarantine carries a loop step: %+v", q)
			}
		default:
			t.Fatalf("unknown quarantine site %q", q.Site)
		}
	}
	if extractQ == 0 || corpusQ == 0 {
		t.Fatalf("expected both extract and corpus quarantines, got %d/%d", extractQ, corpusQ)
	}
	if !strings.Contains(res.Summary(), "quarantined=") {
		t.Fatalf("summary hides quarantines: %s", res.Summary())
	}
}

// TestFaultedRunsAreDeterministic: two runs with the same engine seed and
// the same fault seed must agree on everything, quarantine list included.
func TestFaultedRunsAreDeterministic(t *testing.T) {
	task, groups := wikiTask(t, 1000, 302)
	run := func() tracedRun {
		inj := mustInjector(t, "extract:err=0.05,panic=0.05;corpus.read:err=0.05", 11)
		res, err := runTraced(t, Config{Seed: 33, MaxInputs: 300, Faults: inj}, task, groups)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	identicalRuns(t, "faulted-repeat", a, b)
	if len(a.Quarantined) == 0 || len(a.Quarantined) != len(b.Quarantined) {
		t.Fatalf("quarantine lists differ: %d vs %d", len(a.Quarantined), len(b.Quarantined))
	}
	for i := range a.Quarantined {
		if a.Quarantined[i] != b.Quarantined[i] {
			t.Fatalf("quarantine %d differs: %+v vs %+v", i, a.Quarantined[i], b.Quarantined[i])
		}
	}
}

// TestFaultedRunIsCacheInvariant: because injection is decided before any
// cache lookup, a faulted run must stay byte-identical with the cache
// off, cold, and warm.
func TestFaultedRunIsCacheInvariant(t *testing.T) {
	task, groups := wikiTask(t, 900, 303)
	spec, fseed := "extract:err=0.06,panic=0.04", int64(13)
	base, err := runTraced(t, Config{Seed: 35, MaxInputs: 250,
		Faults: mustInjector(t, spec, fseed)}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	cache := mustCache(t, featcache.Config{})
	cfg := Config{Seed: 35, MaxInputs: 250,
		Faults: mustInjector(t, spec, fseed), Cache: cache}
	cold, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	identicalRuns(t, "faulted-off-vs-cold", base, cold)
	identicalRuns(t, "faulted-off-vs-warm", base, warm)
	if len(base.Quarantined) == 0 || len(cold.Quarantined) != len(base.Quarantined) ||
		len(warm.Quarantined) != len(base.Quarantined) {
		t.Fatalf("quarantines not cache-invariant: %d/%d/%d",
			len(base.Quarantined), len(cold.Quarantined), len(warm.Quarantined))
	}
}

// TestFailureBudgetDegradesToStopFailed: when quarantines swamp the run,
// it must stop accepting damage and return partial results under
// StopFailed instead of burning the remaining budget.
func TestFailureBudgetDegradesToStopFailed(t *testing.T) {
	task, groups := wikiTask(t, 1000, 304)
	inj := mustInjector(t, "extract:panic=0.9", 17)
	res, err := mustEngine(t, Config{Seed: 37, MaxInputs: 400, MaxFailureFrac: 0.25, Faults: inj}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopFailed {
		t.Fatalf("stop = %s, want failed (quarantined %d of %d)", res.Stop, len(res.Quarantined), res.InputsProcessed)
	}
	if res.InputsProcessed >= 400 {
		t.Fatal("budget-exceeded run did not stop early")
	}
	if res.InputsProcessed < 20 {
		t.Fatalf("grace period ignored: stopped at step %d", res.InputsProcessed)
	}
	if len(res.Curve) == 0 || res.Curve[len(res.Curve)-1].Inputs != res.InputsProcessed {
		t.Fatal("failed run lacks its final partial curve point")
	}
	if res.Stop.String() != "failed" {
		t.Fatalf("StopFailed label %q", res.Stop)
	}
}

// TestMaxFailureFracDisabledAtOne: a budget of 1 never trips — every
// input can be quarantined and the run still runs to its input budget.
func TestMaxFailureFracDisabledAtOne(t *testing.T) {
	task, groups := wikiTask(t, 800, 305)
	inj := mustInjector(t, "extract:panic=0.9", 19)
	res, err := mustEngine(t, Config{Seed: 39, MaxInputs: 100, MaxFailureFrac: 1, Faults: inj}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop == StopFailed {
		t.Fatalf("disabled budget still tripped: %s", res.Summary())
	}
	if res.InputsProcessed != 100 {
		t.Fatalf("run truncated: %d", res.InputsProcessed)
	}
	if len(res.Quarantined) < 50 {
		t.Fatalf("90%% panic rate quarantined only %d of 100", len(res.Quarantined))
	}
}

// TestHoldoutFaultsAreQuarantinedNotFatal: extraction failures on
// holdout inputs shrink the holdout and are reported, rather than
// aborting the run before it starts.
func TestHoldoutFaultsAreQuarantinedNotFatal(t *testing.T) {
	task, groups := wikiTask(t, 1000, 306)
	inj := mustInjector(t, "extract:err=0.10,panic=0.05", 23)
	res, err := mustEngine(t, Config{Seed: 41, MaxInputs: 150, Faults: inj}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	holdoutQ := 0
	for _, q := range res.Quarantined {
		if q.Site == "holdout" {
			holdoutQ++
			if q.Reason == "" || q.InputID == "" {
				t.Fatalf("holdout quarantine malformed: %+v", q)
			}
		}
	}
	if holdoutQ == 0 {
		t.Fatal("10%+5% fault rates never hit a 100-input holdout — injector not reaching holdout build")
	}
}

// TestCorpusReadPanicIsQuarantined: a store that panics on a corrupt
// record (DiskStore's contract) costs one quarantine entry, not the run.
func TestCorpusReadPanicIsQuarantined(t *testing.T) {
	task, groups := wikiTask(t, 900, 307)
	inner := task.Store
	task.Store = &panickyStore{Store: inner, badEvery: 17}
	res, err := mustEngine(t, Config{Seed: 43, MaxInputs: 200}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, q := range res.Quarantined {
		if q.Site == string(fault.SiteCorpusRead) && strings.Contains(q.Reason, "corrupt record") {
			found = true
		}
	}
	if !found {
		t.Fatal("no corpus.read quarantine from a panicking store")
	}
}

// panickyStore panics on every badEvery-th index, simulating corrupt
// records in a disk-backed corpus. Holdout indices are served normally
// only by luck of the modulus; the engine must survive either way.
type panickyStore struct {
	corpus.Store
	badEvery int
}

func (s *panickyStore) Get(i int) *corpus.Input {
	if s.badEvery > 0 && i%s.badEvery == 0 {
		panic("corpus: corrupt record (simulated)")
	}
	return s.Store.Get(i)
}

func TestConfigRejectsBadFailureFrac(t *testing.T) {
	if _, err := New(Config{MaxFailureFrac: 1.5}); err == nil {
		t.Fatal("MaxFailureFrac > 1 accepted")
	}
	// A negative budget is an error, not the default: only 0 means that.
	if _, err := New(Config{MaxFailureFrac: -0.25}); err == nil {
		t.Fatal("MaxFailureFrac -0.25 accepted")
	}
	// NaN slips past the default (NaN == 0 is false) and both range
	// comparisons, and would silently disable the budget.
	if _, err := New(Config{MaxFailureFrac: math.NaN()}); err == nil {
		t.Fatal("MaxFailureFrac NaN accepted")
	}
	e := mustEngine(t, Config{})
	if got := e.Config().MaxFailureFrac; got != 0.5 {
		t.Fatalf("default MaxFailureFrac = %v, want 0.5", got)
	}
}
