package core

import (
	"math"
	"runtime"
	"sync"
	"testing"

	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/parallel"
	"zombie/internal/rng"
	"zombie/internal/trace"
)

// songsTask builds a song task on the given learner and metric plus
// k-means groups over the standardized song descriptors: 10-class
// GaussianNB under macro-F1 is the songs workload's pairing, RidgeClosed
// under -RMSE the year-regression pairing of examples/songs.
func songsTask(t testing.TB, n int, seed int64, newModel func(featurepipe.FeatureFunc) learner.Model, metric learner.Metric) (*featurepipe.Task, *index.Groups) {
	t.Helper()
	cfg := corpus.DefaultSongConfig()
	cfg.N = n
	ins, err := corpus.GenerateSongs(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	task, err := featurepipe.NewTask("songs", store, featurepipe.NewSongFeature(1, cfg), newModel,
		metric, 0, featurepipe.CostModel{}, featurepipe.TaskOptions{}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	numeric := index.NewNumeric(cfg.Dim)
	numeric.FitStandardize(store)
	grouper := &index.KMeansGrouper{Vectorizer: numeric, Config: index.KMeansConfig{MaxIter: 10}}
	groups, err := grouper.Group(store, 12, rng.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	return task, groups
}

// TestAmortizedEvalReproducible: the amortized evaluation path must keep
// the engine's replay guarantee — identical config and seed, identical
// curve.
func TestAmortizedEvalReproducible(t *testing.T) {
	task, groups := wikiTask(t, 1200, 500)
	e := mustEngine(t, Config{Seed: 5, MaxInputs: 400})
	a, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Curve) != len(b.Curve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(a.Curve), len(b.Curve))
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			t.Fatalf("curve point %d differs: %+v vs %+v", i, a.Curve[i], b.Curve[i])
		}
	}
}

// fromScratchQuality is the reference the curve is held to: a fresh model
// fitted, in step order, on every example the run had produced by the
// given step — re-extracted from the inputs its step events name — and
// scored on the task's holdout.
func fromScratchQuality(t *testing.T, task *featurepipe.Task, hold *learner.Holdout, events []trace.Event, step int) float64 {
	t.Helper()
	m := task.NewModel(task.Feature)
	for _, ev := range events[:step] {
		if !ev.Produced {
			continue
		}
		res, err := task.Feature.Extract(task.Store.Get(ev.InputIdx))
		if err != nil || !res.Produced {
			t.Fatalf("step %d: re-extraction of input %d did not produce (err %v)", ev.Step, ev.InputIdx, err)
		}
		m.PartialFit(res.Example)
	}
	return hold.Quality(m)
}

// TestAmortizedEvalMatchesFromScratch: a curve point scores the run's one
// model, which fits each produced example once as it arrives. It must
// agree with a fresh model refitted on the same examples, up to
// floating-point accumulation order, for both NB families and ridge. The
// quality-delta cells also score that model on the reward subsample inside
// every batch, at K=1 and K=16: one model on two holdouts, which
// GaussianNB's incremental holdout rows must keep apart.
func TestAmortizedEvalMatchesFromScratch(t *testing.T) {
	gaussian := func(ff featurepipe.FeatureFunc) learner.Model {
		return learner.NewGaussianNB(ff.Dim(), corpus.DefaultSongConfig().Genres, 1e-3)
	}
	ridge := func(ff featurepipe.FeatureFunc) learner.Model { return learner.NewRidgeClosed(ff.Dim(), 1) }
	wiki := func() (*featurepipe.Task, *index.Groups) { return wikiTask(t, 1200, 501) }
	songs := func() (*featurepipe.Task, *index.Groups) {
		return songsTask(t, 1200, 501, gaussian, learner.MetricMacroF1)
	}
	for _, tc := range []struct {
		name   string
		build  func() (*featurepipe.Task, *index.Groups)
		reward RewardKind
		batch  int
	}{
		{"multinomial-nb/wiki", wiki, RewardUsefulness, 1},
		{"multinomial-nb/wiki/quality-delta-k1", wiki, RewardQualityDelta, 1},
		{"multinomial-nb/wiki/quality-delta-k16", wiki, RewardQualityDelta, 16},
		{"gaussian-nb/songs", songs, RewardUsefulness, 1},
		{"gaussian-nb/songs/quality-delta-k1", songs, RewardQualityDelta, 1},
		{"gaussian-nb/songs/quality-delta-k16", songs, RewardQualityDelta, 16},
		{"ridge/songs", func() (*featurepipe.Task, *index.Groups) {
			return songsTask(t, 1200, 501, ridge, learner.MetricNegRMSE)
		}, RewardUsefulness, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			task, groups := tc.build()
			res, err := runTraced(t, Config{Seed: 9, MaxInputs: 400, Reward: tc.reward, BatchSize: tc.batch}, task, groups)
			if err != nil {
				t.Fatal(err)
			}
			release := parallel.Hold()
			hold, _, err := task.BuildHoldoutTolerant()
			release()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Curve) < 10 {
				t.Fatalf("only %d curve points", len(res.Curve))
			}
			for i, p := range res.Curve {
				want := fromScratchQuality(t, task, hold, res.Events, p.Inputs)
				tol := 1e-9
				if hold.Metric == learner.MetricNegRMSE {
					tol *= math.Abs(want)
				}
				if math.Abs(p.Quality-want) > tol {
					t.Fatalf("curve point %d (%d inputs): amortized %v vs from-scratch %v", i, p.Inputs, p.Quality, want)
				}
			}
		})
	}
}

// atProcs runs fn at GOMAXPROCS procs — the size of the helper budget the
// holdout build and evaluation borrow from — and restores the setting.
func atProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestRunIdenticalAcrossGOMAXPROCS: how many idle cores a run borrows is
// invisible in its result. A classification run (build and eval share
// out), a regression run (eval stays on the loop goroutine) and faulted
// runs at K=1 and K=16 give the same curve, arms, quarantine list and
// final quality at GOMAXPROCS 1 and 4; two runs at once at GOMAXPROCS 2,
// which leave each other nothing to borrow, match their sequential twins.
func TestRunIdenticalAcrossGOMAXPROCS(t *testing.T) {
	nb := func(f featurepipe.FeatureFunc) learner.Model { return learner.NewGaussianNB(f.Dim(), 10, 1e-3) }
	ridge := func(f featurepipe.FeatureFunc) learner.Model { return learner.NewRidgeClosed(f.Dim(), 1e-3) }
	classify, classifyGroups := songsTask(t, 4000, 510, nb, learner.MetricMacroF1)
	regress, regressGroups := songsTask(t, 3000, 511, ridge, learner.MetricNegRMSE)
	faulted, faultedGroups := wikiTask(t, 3000, 512)
	faults := mustInjector(t, "extract:err=0.05,panic=0.03;corpus.read:err=0.02", 13)
	cells := []struct {
		name   string
		task   *featurepipe.Task
		groups *index.Groups
		cfg    Config
	}{
		{"classify", classify, classifyGroups, Config{Seed: 7, MaxInputs: 600}},
		{"regress", regress, regressGroups, Config{Seed: 7, MaxInputs: 400}},
		{"faulted-k1", faulted, faultedGroups, Config{Seed: 7, MaxInputs: 400, Faults: faults}},
		{"faulted-k16", faulted, faultedGroups, Config{Seed: 7, MaxInputs: 400, BatchSize: 16, Faults: faults}},
	}
	run := func(i int) tracedRun {
		c := cells[i]
		res, err := runTraced(t, c.cfg, c.task, c.groups)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		return res
	}
	want := make([]tracedRun, len(cells))
	atProcs(1, func() {
		for i := range cells {
			want[i] = run(i)
		}
	})
	if len(want[0].Curve) < 10 || len(want[2].Quarantined) == 0 {
		t.Fatalf("cells too small to say anything: %d curve points, %d quarantined",
			len(want[0].Curve), len(want[2].Quarantined))
	}
	atProcs(4, func() {
		for i, c := range cells {
			assertIdenticalResults(t, c.name+" at GOMAXPROCS 4", want[i], run(i))
		}
	})
	atProcs(2, func() {
		got := make([]tracedRun, 2)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() { defer wg.Done(); got[i] = run(2 * i) }()
		}
		wg.Wait()
		for i, res := range got {
			assertIdenticalResults(t, cells[2*i].name+" beside another run", want[2*i], res)
		}
	})
}

// TestSubsampleHoldoutGuards: n <= 0 and n >= len both reuse the full
// holdout instead of producing an empty (reward-zeroing) subsample.
func TestSubsampleHoldoutGuards(t *testing.T) {
	examples := make([]learner.Example, 20)
	for i := range examples {
		examples[i] = learner.Example{
			Features: learner.DenseVec([]float64{float64(i)}),
			Class:    i % 2,
		}
	}
	h := learner.NewHoldout(examples, learner.MetricF1, 1)
	for _, n := range []int{0, -5, 20, 100} {
		if got := subsampleHoldout(h, n, rng.New(1)); got != h {
			t.Fatalf("n=%d: expected full holdout reuse, got %d examples", n, len(got.Examples))
		}
	}
	sub := subsampleHoldout(h, 5, rng.New(1))
	if sub == h || len(sub.Examples) != 5 {
		t.Fatalf("n=5: expected fresh 5-example subsample, got %d (reused=%v)",
			len(sub.Examples), sub == h)
	}
	if sub.Metric != h.Metric || sub.Positive != h.Positive {
		t.Fatal("subsample must preserve metric configuration")
	}
}
