package core

import (
	"testing"

	"zombie/internal/featurepipe"
	"zombie/internal/learner"
	"zombie/internal/otrace"
)

// benchInnerLoop drives the full bandit loop — select, read, extract,
// train, delta-reward bracket — over a generated wiki corpus and reports
// allocs/op for the whole run. RewardQualityDelta is the expensive reward
// (two holdout evaluations per pull), which is exactly where batching
// amortizes: K=16 pays the bracket once per 16 inputs instead of per input.
// The traced variants attach a span tracer: tracing may add allocations per
// span it records, never per processed input.
func benchInnerLoop(b *testing.B, batch int, traced bool) {
	task, groups := wikiTask(b, 900, 77)
	cfg := Config{Seed: 5, MaxInputs: 200, Reward: RewardQualityDelta, BatchSize: batch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if traced {
			cfg.Tracer = otrace.New("bench", otrace.DefaultCapacity)
		}
		if _, err := mustEngine(b, cfg).Run(task, groups); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInnerStepK1(b *testing.B)        { benchInnerLoop(b, 1, false) }
func BenchmarkInnerStepK16(b *testing.B)       { benchInnerLoop(b, 16, false) }
func BenchmarkInnerStepK1Traced(b *testing.B)  { benchInnerLoop(b, 1, true) }
func BenchmarkInnerStepK16Traced(b *testing.B) { benchInnerLoop(b, 16, true) }

// benchGaussianQualityDelta is the songs loop under the quality-delta
// reward: one 10-class GaussianNB scored on the reward subsample around
// every batch and on the curve holdout every EvalEvery inputs, through
// one evaluator each.
func benchGaussianQualityDelta(b *testing.B, batch int) {
	nb := func(f featurepipe.FeatureFunc) learner.Model { return learner.NewGaussianNB(f.Dim(), 10, 1e-3) }
	task, groups := songsTask(b, 20000, 78, nb, learner.MetricMacroF1)
	cfg := Config{Seed: 5, MaxInputs: 4000, Reward: RewardQualityDelta, BatchSize: batch}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mustEngine(b, cfg).Run(task, groups); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInnerStepGaussianQualityDeltaK1(b *testing.B)  { benchGaussianQualityDelta(b, 1) }
func BenchmarkInnerStepGaussianQualityDeltaK16(b *testing.B) { benchGaussianQualityDelta(b, 16) }
