package core

import (
	"reflect"
	"testing"

	"zombie/internal/featcache"
)

// assertIdenticalResults is reflect.DeepEqual over everything the
// determinism contract covers, step events included: only wall-clock
// fields (WallTime, Phases) are stripped before comparing.
func assertIdenticalResults(t *testing.T, label string, a, b tracedRun) {
	t.Helper()
	ca, cb := *a.RunResult, *b.RunResult
	ca.WallTime, cb.WallTime = 0, 0
	ca.Phases, cb.Phases = PhaseBreakdown{}, PhaseBreakdown{}
	if !reflect.DeepEqual(ca, cb) || !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("%s: results differ:\n%s\n%s", label, a.Summary(), b.Summary())
	}
}

// TestBatchSizeOneMatchesDefault is the K=1 half of the batching
// contract: an explicit BatchSize of 1 (and the <=0 floor) must be
// byte-identical to the default config for every reward kind — same
// curve, same trace, same arm statistics.
func TestBatchSizeOneMatchesDefault(t *testing.T) {
	task, groups := wikiTask(t, 1200, 240)
	for _, reward := range []RewardKind{RewardUsefulness, RewardQualityDelta, RewardHybrid} {
		cfg := Config{Seed: 9, MaxInputs: 300, Reward: reward}
		base, err := runTraced(t, cfg, task, groups)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 0, -3} {
			cfgK := cfg
			cfgK.BatchSize = k
			got, err := runTraced(t, cfgK, task, groups)
			if err != nil {
				t.Fatal(err)
			}
			assertIdenticalResults(t, reward.String(), base, got)
		}
	}
}

// TestBatchRunsAreDeterministic pins the K>1 half: a batched run is a
// pure function of (seed, K) — two runs of the same engine replay
// byte-identically, and different K values genuinely change the schedule
// (otherwise the knob would be dead).
func TestBatchRunsAreDeterministic(t *testing.T) {
	task, groups := wikiTask(t, 1200, 241)
	cfg := Config{Seed: 3, MaxInputs: 300, Reward: RewardQualityDelta, BatchSize: 16}
	a, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalResults(t, "K=16 replay", a, b)

	cfg1 := cfg
	cfg1.BatchSize = 1
	single, err := runTraced(t, cfg1, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if a.InputsProcessed != single.InputsProcessed {
		t.Fatalf("batching changed the input budget: %d vs %d", a.InputsProcessed, single.InputsProcessed)
	}
	sameArm := true
	for i := range a.Events {
		if a.Events[i].Arm != single.Events[i].Arm {
			sameArm = false
			break
		}
	}
	if sameArm {
		t.Fatal("K=16 produced the same arm schedule as K=1 — the batch knob is dead")
	}
}

// TestPartialBatches covers the guardrails for K that does not divide the
// work: a budget that is not a multiple of K must stop exactly at the
// budget, and a K larger than any arm must drain every arm through short
// batches down to exhaustion, touching each input exactly once.
func TestPartialBatches(t *testing.T) {
	task, groups := wikiTask(t, 900, 242)

	// MaxInputs not a multiple of K: the last batch is clamped to the
	// remaining budget.
	got, err := mustEngine(t, Config{Seed: 4, MaxInputs: 100, BatchSize: 7}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if got.InputsProcessed != 100 || got.Stop != StopBudget {
		t.Fatalf("budget overshoot: %d inputs, stop=%s", got.InputsProcessed, got.Stop)
	}

	// K far larger than any arm: every pull is a partial batch; the run
	// must still exhaust the pool with each input processed exactly once.
	exhaust1, err := mustEngine(t, Config{Seed: 4, BatchSize: 1}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	exhaustK, err := runTraced(t, Config{Seed: 4, BatchSize: 512}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if exhaustK.Stop != StopExhausted || exhaustK.InputsProcessed != exhaust1.InputsProcessed {
		t.Fatalf("oversized batches broke exhaustion: %d vs %d inputs, stop=%s",
			exhaustK.InputsProcessed, exhaust1.InputsProcessed, exhaustK.Stop)
	}
	seen := map[int]bool{}
	for _, ev := range exhaustK.Events {
		if seen[ev.InputIdx] {
			t.Fatalf("input %d processed twice", ev.InputIdx)
		}
		seen[ev.InputIdx] = true
	}
}

// TestBatchCurveOnBoundaries documents what K changes about the curve: at
// K=1 points land on exact EvalEvery multiples; at K>1 each point lands
// on the first batch boundary crossing a new EvalEvery bucket, strictly
// increasing.
func TestBatchCurveOnBoundaries(t *testing.T) {
	task, groups := wikiTask(t, 1200, 243)
	every := 25

	k1, err := mustEngine(t, Config{Seed: 6, MaxInputs: 300, EvalEvery: every}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range k1.Curve[:len(k1.Curve)-1] { // final point may repeat the last eval
		if p.Inputs%every != 0 {
			t.Fatalf("K=1 curve point off the EvalEvery grid: %+v", p)
		}
	}

	k16, err := mustEngine(t, Config{Seed: 6, MaxInputs: 300, EvalEvery: every, BatchSize: 16}).Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, p := range k16.Curve[1 : len(k16.Curve)-1] {
		if p.Inputs <= prev {
			t.Fatalf("K=16 curve not strictly increasing at %+v", p)
		}
		if p.Inputs/every == prev/every {
			t.Fatalf("K=16 curve point did not cross a new EvalEvery bucket: %d after %d", p.Inputs, prev)
		}
		prev = p.Inputs
	}
}

// TestBatchCacheStatesIdentical extends the extraction-cache determinism
// contract to K>1: a batched run must be byte-identical with the cache
// off, cold, and warm.
func TestBatchCacheStatesIdentical(t *testing.T) {
	task, groups := wikiTask(t, 1200, 244)
	cfg := Config{Seed: 12, MaxInputs: 300, BatchSize: 8}

	base, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	cache := mustCache(t, featcache.Config{})
	cfgCached := cfg
	cfgCached.Cache = cache
	cold, err := runTraced(t, cfgCached, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runTraced(t, cfgCached, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits == 0 {
		t.Fatal("second cached run hit nothing — the cache is not warming")
	}
	identicalRuns(t, "off vs cold", base, cold)
	identicalRuns(t, "off vs warm", base, warm)
}
