package core

import (
	"testing"

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
