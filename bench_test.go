package zombie

// One testing.B benchmark per paper table/figure (DESIGN.md §4). Each
// bench executes its experiment end-to-end at reduced scale through the
// same harness cmd/zombie-bench runs at full scale, so `go test -bench=.`
// exercises every reproduction path. Reported ns/op is the wall cost of
// regenerating the artifact at bench scale, not the simulated times the
// tables contain.

import (
	"io"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/experiments"
	"zombie/internal/featurepipe"
	"zombie/internal/learner"
)

// benchCfg keeps benches fast while preserving every code path; the
// 400-input floor applies per task.
var benchCfg = experiments.Config{Scale: 0.05, Seed: 20160516}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(id, benchCfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1DatasetStats regenerates the dataset-statistics table.
func BenchmarkT1DatasetStats(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkT2HeadlineSpeedup regenerates the headline scan-vs-zombie
// speedup table (paper: up to 8x).
func BenchmarkT2HeadlineSpeedup(b *testing.B) { benchExperiment(b, "T2") }

// BenchmarkT3Session regenerates the end-to-end engineering-session table
// (paper: 8h -> 5h).
func BenchmarkT3Session(b *testing.B) { benchExperiment(b, "T3") }

// BenchmarkT4IndexCost regenerates the index amortization table.
func BenchmarkT4IndexCost(b *testing.B) { benchExperiment(b, "T4") }

// BenchmarkF1LearningCurves regenerates the learning-curve series.
func BenchmarkF1LearningCurves(b *testing.B) { benchExperiment(b, "F1") }

// BenchmarkF2GroupCount regenerates the speedup-vs-k sweep.
func BenchmarkF2GroupCount(b *testing.B) { benchExperiment(b, "F2") }

// BenchmarkF3Policies regenerates the bandit-policy comparison.
func BenchmarkF3Policies(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkF4Rewards regenerates the reward-function ablation.
func BenchmarkF4Rewards(b *testing.B) { benchExperiment(b, "F4") }

// BenchmarkF5EarlyStop regenerates the early-stopping sweep.
func BenchmarkF5EarlyStop(b *testing.B) { benchExperiment(b, "F5") }

// BenchmarkF6Indexing regenerates the indexing-strategy ablation.
func BenchmarkF6Indexing(b *testing.B) { benchExperiment(b, "F6") }

// BenchmarkF7Nonstationary regenerates the arm-statistics aging ablation.
func BenchmarkF7Nonstationary(b *testing.B) { benchExperiment(b, "F7") }

// BenchmarkF8Scaling regenerates the speedup-vs-corpus-size extension.
func BenchmarkF8Scaling(b *testing.B) { benchExperiment(b, "F8") }

// --- engine micro-benchmarks -------------------------------------------

// benchTask builds a small image task + groups once for engine benches.
func benchTask(b *testing.B) (*Task, *Groups) {
	b.Helper()
	gen := corpus.DefaultImageConfig()
	gen.N = 2000
	inputs, err := corpus.GenerateImages(gen, NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	store := NewMemStore(inputs)
	feature := featurepipe.NewImageFeature(1, gen)
	task, err := NewTask("bench", store, feature,
		func(f FeatureFunc) Model { return learner.NewGaussianNB(f.Dim(), 2, 1e-3) },
		MetricF1, 1, CostModel{}, TaskOptions{}, NewRNG(2))
	if err != nil {
		b.Fatal(err)
	}
	groups, err := BuildIndex(store, IndexKMeansNumeric, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	return task, groups
}

// BenchmarkEngineZombieRun measures one bandit-selected evaluation run of
// 500 inputs (extraction + learner update + periodic holdout evaluation).
func BenchmarkEngineZombieRun(b *testing.B) {
	task, groups := benchTask(b)
	eng, err := NewEngine(Config{Seed: 4, MaxInputs: 500})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(task, groups); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineScanRun measures the random-scan baseline on the same
// budget, isolating the bandit's overhead.
func BenchmarkEngineScanRun(b *testing.B) {
	task, _ := benchTask(b)
	eng, err := NewEngine(Config{Mode: ModeScanRandom, Seed: 4, MaxInputs: 500})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(task, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexBuild measures k-means index construction over 2000
// numeric inputs, the amortized offline cost of experiment T4.
func BenchmarkIndexBuild(b *testing.B) {
	gen := corpus.DefaultImageConfig()
	gen.N = 2000
	inputs, err := corpus.GenerateImages(gen, NewRNG(5))
	if err != nil {
		b.Fatal(err)
	}
	store := NewMemStore(inputs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(store, IndexKMeansNumeric, 32, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
