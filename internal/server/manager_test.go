package server

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/rng"
)

// writeImageCorpus generates an image corpus JSONL for tests: numeric
// payloads make it the cheapest workload to extract and index.
func writeImageCorpus(t *testing.T, n int, seed int64) string {
	t.Helper()
	cfg := corpus.DefaultImageConfig()
	cfg.N = n
	ins, err := corpus.GenerateImages(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "images.jsonl")
	if err := corpus.WriteJSONL(path, ins); err != nil {
		t.Fatal(err)
	}
	return path
}

// newTestManager wires a manager over a registry holding the named image
// corpus.
func newTestManager(t *testing.T, corpusName string, n int, workers, queueCap int) (*Manager, *Metrics) {
	t.Helper()
	metrics := NewMetrics(nil)
	registry := NewRegistry()
	if _, err := registry.Add(corpusName, writeImageCorpus(t, n, 42), false); err != nil {
		t.Fatal(err)
	}
	featCache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(registry, NewIndexCache(metrics), featCache, metrics, nil, workers, queueCap, RunDefaults{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		m.Shutdown(ctx) //nolint:errcheck
	})
	return m, metrics
}

// longSpec is a run that cannot finish quickly: per-step set-based
// re-evaluation keeps the loop busy for seconds over a 20000-input corpus
// (the cost is quadratic in corpus size, so smaller corpora finish in
// milliseconds), giving tests a wide window to observe and cancel it.
func longSpec(corpusName string) RunSpec {
	return RunSpec{Corpus: corpusName, Task: "image", Mode: "scan-random", EvalEvery: 1}
}

// waitState polls until the run reaches want or the deadline passes.
func waitState(t *testing.T, run *Run, want RunState) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if run.State() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("run %s stuck in %s, want %s", run.ID, run.State(), want)
}

func TestSubmitValidation(t *testing.T) {
	m, _ := newTestManager(t, "imgs", 200, 1, 4)
	cases := []RunSpec{
		{Corpus: "nope", Task: "image"},
		{Corpus: "imgs", Task: "nope"},
		{Corpus: "imgs", Task: "image", Mode: "warp"},
		{Corpus: "imgs", Task: "image", Policy: "bogus-policy"},
		{Corpus: "imgs", Task: "image", K: -1},
		{Corpus: "imgs", Task: "image", MaxInputs: -5},
	}
	for i, spec := range cases {
		if _, err := m.Submit(spec); err == nil {
			t.Errorf("case %d (%+v): expected a submit error", i, spec)
		}
	}
}

func TestRunLifecycleAndDefaults(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 600, 2, 8)
	run, err := m.Submit(RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 80, EvalEvery: 20})
	if err != nil {
		t.Fatal(err)
	}
	<-run.done
	info := run.Info()
	if info.State != StateDone {
		t.Fatalf("state = %s (%s)", info.State, info.Error)
	}
	if info.Spec.Mode != "zombie" || info.Spec.Policy != "eps-greedy:0.1" || info.Spec.K != 32 || info.Spec.Seed != 1 {
		t.Fatalf("defaults not applied: %+v", info.Spec)
	}
	if info.InputsProcessed != 80 || info.Stop != "budget" {
		t.Fatalf("result summary wrong: %+v", info)
	}
	// Curve: step 0 + 4 evals; every point was live-published.
	if info.CurvePoints != 5 {
		t.Fatalf("curve points = %d, want 5", info.CurvePoints)
	}
	if metrics.RunsCompleted.Load() != 1 || metrics.InputsProcessed.Load() != 80 {
		t.Fatalf("metrics: completed=%d inputs=%d", metrics.RunsCompleted.Load(), metrics.InputsProcessed.Load())
	}
	if info.Started == "" || info.Finished == "" {
		t.Fatal("timestamps missing")
	}
}

func TestCancelRunningRun(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 20000, 1, 4)
	run, err := m.Submit(longSpec("imgs"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateRunning)
	if _, err := m.Cancel(run.ID); err != nil {
		t.Fatal(err)
	}
	<-run.done
	info := run.Info()
	if info.State != StateCancelled || info.Stop != "cancelled" {
		t.Fatalf("cancelled run info: %+v", info)
	}
	// Partial curve: the step-0 floor at minimum, and nowhere near the
	// 18000-input pool.
	if info.CurvePoints < 1 {
		t.Fatal("cancelled run lost its partial curve")
	}
	if res := run.Result(); res == nil || res.InputsProcessed >= 18000 {
		t.Fatalf("cancelled run result: %+v", res)
	}
	if metrics.RunsCancelled.Load() != 1 {
		t.Fatalf("runs_cancelled = %d", metrics.RunsCancelled.Load())
	}
}

func TestCancelQueuedRun(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 20000, 1, 4)
	blocker, err := m.Submit(longSpec("imgs"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	queued, err := m.Submit(RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 10})
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateCancelled || info.Started != "" {
		t.Fatalf("queued cancel: %+v", info)
	}
	select {
	case <-queued.done:
	default:
		t.Fatal("queued-cancelled run should be terminal immediately")
	}
	if metrics.RunsCancelled.Load() != 1 {
		t.Fatalf("runs_cancelled = %d", metrics.RunsCancelled.Load())
	}
	// Cancelling again is a no-op, not a double count.
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	if metrics.RunsCancelled.Load() != 1 {
		t.Fatal("double cancel double-counted")
	}
	if _, err := m.Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	<-blocker.done
}

func TestQueueFullRejects(t *testing.T) {
	m, _ := newTestManager(t, "imgs", 20000, 1, 1)
	blocker, err := m.Submit(longSpec("imgs"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, blocker, StateRunning)
	if _, err := m.Submit(RunSpec{Corpus: "imgs", Task: "image"}); err != nil {
		t.Fatalf("queue slot should be free: %v", err)
	}
	_, err = m.Submit(RunSpec{Corpus: "imgs", Task: "image"})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	m.Cancel(blocker.ID) //nolint:errcheck
}

func TestShutdownDrains(t *testing.T) {
	m, _ := newTestManager(t, "imgs", 600, 1, 4)
	run, err := m.Submit(RunSpec{Corpus: "imgs", Task: "image", Mode: "scan-sequential", MaxInputs: 50, EvalEvery: 25})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if st := run.State(); st != StateDone {
		t.Fatalf("drained run state = %s", st)
	}
	if _, err := m.Submit(RunSpec{Corpus: "imgs", Task: "image"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-shutdown submit err = %v", err)
	}
}

func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	m, _ := newTestManager(t, "imgs", 20000, 1, 4)
	run, err := m.Submit(longSpec("imgs"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, run, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Shutdown returned only after the worker observed the cancellation.
	if st := run.State(); st != StateCancelled {
		t.Fatalf("in-flight run state after forced shutdown = %s", st)
	}
}

func TestRunWallTimeMetrics(t *testing.T) {
	m, metrics := newTestManager(t, "imgs", 600, 1, 4)
	run, err := m.Submit(RunSpec{Corpus: "imgs", Task: "image", MaxInputs: 100, EvalEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	<-run.done
	info := run.Info()
	if info.State != StateDone {
		t.Fatalf("state = %s (%s)", info.State, info.Error)
	}
	if info.WallMillis <= 0 {
		t.Fatalf("wall_ms = %d, want > 0 for a per-step-eval run", info.WallMillis)
	}
	if got := metrics.RunWallMillis.Load(); got != info.WallMillis {
		t.Fatalf("cumulative run wall ms = %d, want %d (the only run's wall time)", got, info.WallMillis)
	}
	snap := metrics.Registry().FlatSnapshot()
	if snap["run_wall_ms"] != info.WallMillis {
		t.Fatalf("snapshot run_wall_ms = %d, want %d", snap["run_wall_ms"], info.WallMillis)
	}
	if want := info.WallMillis / 1000; snap["run_seconds"] != want {
		t.Fatalf("snapshot run_seconds = %d, want %d", snap["run_seconds"], want)
	}
}
