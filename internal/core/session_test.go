package core

import (
	"testing"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/rng"
)

// miniWikiSession builds a 3-version wiki session over a small corpus with
// a nonzero cost model so session times are meaningful.
func miniWikiSession(t *testing.T, n int, seed int64) (*featurepipe.Session, *featurepipe.Task, *index.Groups) {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	f := featurepipe.NewWikiFeature(2)
	task, err := featurepipe.NewTask("wiki", store, f,
		func(ff featurepipe.FeatureFunc) learner.Model {
			return learner.NewMultinomialNB(ff.Dim(), 2, 1)
		},
		learner.MetricF1, 1,
		featurepipe.CostModel{PerInput: 20 * time.Millisecond},
		featurepipe.TaskOptions{}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	// The task's model factory is built for one dimensionality, so this
	// session iterates versions that share dim 16384 (v7 and v8 differ in
	// marker boost only).
	v7 := featurepipe.NewWikiFeature(7)
	v8 := featurepipe.NewWikiFeature(8)
	sess, err := featurepipe.NewSession("mini", 1, v7, v8)
	if err != nil {
		t.Fatal(err)
	}
	task.Feature = v7
	grouper := &index.KMeansGrouper{Vectorizer: index.NewHashedText(64), Config: index.KMeansConfig{MaxIter: 8}}
	groups, err := grouper.Group(store, 8, rng.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	return sess, task, groups
}

func TestRunSessionScanVsZombie(t *testing.T) {
	sess, task, groups := miniWikiSession(t, 2500, 400)
	e := mustEngine(t, Config{
		Seed: 1,
		EarlyStop: EarlyStopConfig{
			Enabled: true, Window: 6, SlopeThreshold: 0.004, Patience: 2, MinInputs: 250,
		},
	})
	zombie, err := e.RunSession(sess, task, groups, true)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := e.RunSession(sess, task, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(zombie.Iterations) != 2 || len(scan.Iterations) != 2 {
		t.Fatalf("iterations: %d vs %d", len(zombie.Iterations), len(scan.Iterations))
	}
	if zombie.Mode != "zombie" || scan.Mode != "scan" {
		t.Fatal("modes wrong")
	}
	// Scan processes the full pool every iteration.
	for i, it := range scan.Iterations {
		if it.Run.InputsProcessed != len(task.PoolIdx) {
			t.Fatalf("scan iteration %d processed %d of %d", i, it.Run.InputsProcessed, len(task.PoolIdx))
		}
		if it.Run.Stop == StopEarly {
			t.Fatal("scan session must not early-stop")
		}
	}
	// Zombie processes less in total and therefore waits less.
	if zombie.TotalInputs() >= scan.TotalInputs() {
		t.Fatalf("zombie processed %d inputs vs scan %d", zombie.TotalInputs(), scan.TotalInputs())
	}
	if zombie.TotalTime() >= scan.TotalTime() {
		t.Fatalf("zombie total %v vs scan %v", zombie.TotalTime(), scan.TotalTime())
	}
	// Both sessions charge think time identically.
	if zombie.ThinkTime != scan.ThinkTime {
		t.Fatal("think time should match across modes")
	}
	// Quality parity: zombie's final iteration quality within tolerance.
	zq := zombie.Iterations[1].Run.FinalQuality
	sq := scan.Iterations[1].Run.FinalQuality
	if sq-zq > 0.12 {
		t.Fatalf("zombie session lost too much quality: %.3f vs %.3f", zq, sq)
	}
}

func TestRunSessionValidation(t *testing.T) {
	sess, task, groups := miniWikiSession(t, 600, 401)
	e := mustEngine(t, Config{Seed: 1})
	if _, err := e.RunSession(nil, task, groups, true); err == nil {
		t.Fatal("nil session should fail")
	}
	if _, err := e.RunSession(sess, task, nil, true); err == nil {
		t.Fatal("zombie session without groups should fail")
	}
}

func TestSessionResultTotals(t *testing.T) {
	s := &SessionResult{
		IndexBuild:     2 * time.Minute,
		ThinkTime:      10 * time.Minute,
		ProcessingTime: 30 * time.Minute,
		Iterations: []IterationResult{
			{Run: &RunResult{InputsProcessed: 100}},
			{Run: &RunResult{InputsProcessed: 250}},
		},
	}
	if s.TotalTime() != 42*time.Minute {
		t.Fatalf("TotalTime = %v", s.TotalTime())
	}
	if s.TotalInputs() != 350 {
		t.Fatalf("TotalInputs = %d", s.TotalInputs())
	}
}
