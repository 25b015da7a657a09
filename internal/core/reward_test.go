package core

import (
	"math"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

func TestClamp01(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{
		{-1, 0}, {0, 0}, {0.5, 0.5}, {1, 1}, {2, 1},
	} {
		if got := clamp01(tc.in); got != tc.want {
			t.Errorf("clamp01(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// fixedHoldout builds a trivial 1-D binary holdout for reward tests.
func fixedHoldout() *learner.Holdout {
	exs := []learner.Example{
		{Features: learner.DenseVec([]float64{-1}), Class: 0},
		{Features: learner.DenseVec([]float64{-0.8}), Class: 0},
		{Features: learner.DenseVec([]float64{1}), Class: 1},
		{Features: learner.DenseVec([]float64{0.8}), Class: 1},
	}
	return learner.NewHoldout(exs, learner.MetricAccuracy, 1)
}

// The reward tests below pin bracketReward, the arithmetic the loop's
// settle stage runs for every produced input.

func TestRewardUsefulnessValues(t *testing.T) {
	// Under RewardUsefulness the bracket's quality measurements are never
	// taken; whatever they hold must not leak into the reward.
	for _, tc := range []struct{ useful, want float64 }{{1, 1}, {0, 0}} {
		if got := bracketReward(RewardUsefulness, tc.useful, 0.2, 0.9, 20); got != tc.want {
			t.Fatalf("usefulness reward for bit %v = %v", tc.useful, got)
		}
	}
}

func TestRewardQualityDeltaPaysForImprovement(t *testing.T) {
	hold := fixedHoldout()
	model := learner.NewGaussianNB(1, 2, 1e-3)
	// Seed the model so quality is defined, with one example per class.
	model.PartialFit(learner.Example{Features: learner.DenseVec([]float64{-1}), Class: 0})
	model.PartialFit(learner.Example{Features: learner.DenseVec([]float64{-0.5}), Class: 1}) // wrong side
	before := hold.Quality(model)
	model.PartialFit(learner.Example{Features: learner.DenseVec([]float64{1.2}), Class: 1})
	after := hold.Quality(model)
	if after <= before {
		t.Skip("model did not improve on this seed; delta semantics untestable here")
	}
	reward := bracketReward(RewardQualityDelta, 1, before, after, 10)
	want := clamp01((after - before) * 10)
	if reward <= 0 || math.Abs(reward-want) > 1e-12 {
		t.Fatalf("delta reward = %v, want %v", reward, want)
	}
	// The usefulness bit plays no part in the pure delta reward.
	if got := bracketReward(RewardQualityDelta, 0, before, after, 10); got != reward {
		t.Fatalf("delta reward depends on usefulness: %v vs %v", got, reward)
	}
}

func TestRewardQualityDeltaNeverNegative(t *testing.T) {
	hold := fixedHoldout()
	model := learner.NewGaussianNB(1, 2, 1e-3)
	// Train to perfection first.
	for i := 0; i < 10; i++ {
		model.PartialFit(learner.Example{Features: learner.DenseVec([]float64{-1}), Class: 0})
		model.PartialFit(learner.Example{Features: learner.DenseVec([]float64{1}), Class: 1})
	}
	before := hold.Quality(model)
	// Mislabeled examples can only hurt quality; reward must clamp at 0.
	for i := 0; i < 40; i++ {
		model.PartialFit(learner.Example{Features: learner.DenseVec([]float64{1}), Class: 0})
	}
	after := hold.Quality(model)
	if after >= before {
		t.Fatalf("mislabeled flood did not hurt quality: %v -> %v", before, after)
	}
	if got := bracketReward(RewardQualityDelta, 0, before, after, 20); got != 0 {
		t.Fatalf("harmful batch earned reward %v", got)
	}
}

func TestRewardHybridAverages(t *testing.T) {
	// Saturated model: delta is 0, so hybrid = 0.5*useful.
	if got := bracketReward(RewardHybrid, 1, 1, 1, 10); got != 0.5 {
		t.Fatalf("hybrid reward on saturated model = %v, want 0.5", got)
	}
	// Both halves live: a +1/32 quality step at scale 8 is delta 0.25.
	if got := bracketReward(RewardHybrid, 1, 0.5, 0.53125, 8); got != 0.625 {
		t.Fatalf("hybrid reward = %v, want 0.625", got)
	}
	// An oversized delta clamps at 1 before averaging.
	if got := bracketReward(RewardHybrid, 0, 0, 1, 10); got != 0.5 {
		t.Fatalf("hybrid reward with clamped delta = %v, want 0.5", got)
	}
}

// TestHybridRewardLiveBracket pins the bracket where it runs: every step
// event of a K=1 RewardHybrid run carries 0.5·useful + 0.5·δ for one
// δ ∈ [0,1] (at K=1 the batch the delta is shared over is the step), and
// an input that produced no example earns nothing.
func TestHybridRewardLiveBracket(t *testing.T) {
	task, groups := wikiTask(t, 900, 77)
	res, err := runTraced(t, Config{Seed: 5, MaxInputs: 200, Reward: RewardHybrid}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	evs := res.Events
	if len(evs) != 200 {
		t.Fatalf("traced %d steps, want 200", len(evs))
	}
	produced, paidDelta := 0, 0
	for _, ev := range evs {
		if !ev.Produced {
			if ev.Reward != 0 {
				t.Fatalf("step %d produced nothing but earned %v", ev.Step, ev.Reward)
			}
			continue
		}
		produced++
		useful := 0.0
		if ev.Useful {
			useful = 1
		}
		delta := (ev.Reward - 0.5*useful) / 0.5
		if delta < 0 || delta > 1 {
			t.Fatalf("step %d: reward %v with useful=%v implies delta %v outside [0,1]", ev.Step, ev.Reward, ev.Useful, delta)
		}
		if delta > 0 {
			paidDelta++
		}
	}
	if produced == 0 || paidDelta == 0 {
		t.Fatalf("run too quiet to pin the bracket: %d produced, %d with a positive delta", produced, paidDelta)
	}
}

func TestSubsampleHoldout(t *testing.T) {
	exs := make([]learner.Example, 100)
	for i := range exs {
		exs[i] = learner.Example{Features: learner.DenseVec([]float64{float64(i)}), Class: i % 2}
	}
	h := learner.NewHoldout(exs, learner.MetricF1, 1)
	sub := subsampleHoldout(h, 20, rng.New(1))
	if len(sub.Examples) != 20 {
		t.Fatalf("subsample size = %d", len(sub.Examples))
	}
	if sub.Metric != learner.MetricF1 || sub.Positive != 1 {
		t.Fatal("subsample lost metric config")
	}
	seen := map[float64]bool{}
	for _, ex := range sub.Examples {
		v := ex.Features.At(0)
		if seen[v] {
			t.Fatalf("duplicate example %v in subsample", v)
		}
		seen[v] = true
	}
	// n >= len reuses the original.
	if got := subsampleHoldout(h, 100, rng.New(1)); got != h {
		t.Fatal("full-size subsample should reuse the holdout")
	}
	if got := subsampleHoldout(h, 500, rng.New(1)); got != h {
		t.Fatal("oversized subsample should reuse the holdout")
	}
}

func TestSafeExtractRecoversPanic(t *testing.T) {
	f := &featurepipe.FaultyFeature{
		Inner:    featurepipe.NewWikiFeature(1),
		PanicPct: 100,
	}
	in := &corpus.Input{ID: "x", Kind: corpus.TextKind, Text: "infobox born"}
	res, err, panicked := SafeExtract(f, in)
	if err == nil || !panicked {
		t.Fatal("panic should surface as error")
	}
	if res.Produced {
		t.Fatal("panicked extraction should produce nothing")
	}
}

func TestOracleUsefulDefinitions(t *testing.T) {
	wiki := featurepipe.NewWikiFeature(1)
	pos := &corpus.Input{Truth: corpus.Truth{Class: 1, Relevant: true}}
	neg := &corpus.Input{Truth: corpus.Truth{Class: 0}}
	if !OracleUseful(pos, wiki) || OracleUseful(neg, wiki) {
		t.Fatal("wiki oracle usefulness wrong")
	}
	songCfg := corpus.DefaultSongConfig()
	song := featurepipe.NewSongFeature(1, songCfg)
	rare := &corpus.Input{Truth: corpus.Truth{Class: songCfg.Genres - 1}}
	common := &corpus.Input{Truth: corpus.Truth{Class: 0}}
	if !OracleUseful(rare, song) || OracleUseful(common, song) {
		t.Fatal("song oracle usefulness wrong")
	}
}
