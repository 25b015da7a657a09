package core

import (
	"testing"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/rng"
	"zombie/internal/trace"
)

// imageTask builds a small needle-in-haystack image task on GaussianNB
// plus k-means index groups — the regime where input selection matters
// most.
func imageTask(t *testing.T, n int, seed int64) (*featurepipe.Task, *index.Groups) {
	t.Helper()
	cfg := corpus.DefaultImageConfig()
	cfg.N = n
	ins, err := corpus.GenerateImages(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	f := featurepipe.NewImageFeature(1, cfg)
	task, err := featurepipe.NewTask("image", store, f,
		func(ff featurepipe.FeatureFunc) learner.Model {
			return learner.NewGaussianNB(ff.Dim(), 2, 1e-3)
		},
		learner.MetricF1, 1, featurepipe.CostModel{}, featurepipe.TaskOptions{}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	grouper := &index.KMeansGrouper{
		Vectorizer: index.NewNumeric(cfg.Dim),
		Config:     index.KMeansConfig{MaxIter: 15},
	}
	groups, err := grouper.Group(store, 12, rng.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	return task, groups
}

// wikiTask builds a wiki extraction task on MultinomialNB plus k-means
// index groups over hashed text.
func wikiTask(t testing.TB, n int, seed int64) (*featurepipe.Task, *index.Groups) {
	t.Helper()
	cfg := corpus.DefaultWikiConfig()
	cfg.N = n
	ins, err := corpus.GenerateWiki(cfg, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	store := corpus.NewMemStore(ins)
	f := featurepipe.NewWikiFeature(3)
	task, err := featurepipe.NewTask("wiki", store, f,
		func(ff featurepipe.FeatureFunc) learner.Model {
			return learner.NewMultinomialNB(ff.Dim(), 2, 1)
		},
		learner.MetricF1, 1, featurepipe.CostModel{}, featurepipe.TaskOptions{}, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	grouper := &index.KMeansGrouper{
		Vectorizer: index.NewHashedText(128),
		Config:     index.KMeansConfig{MaxIter: 10},
	}
	groups, err := grouper.Group(store, 12, rng.New(seed+2))
	if err != nil {
		t.Fatal(err)
	}
	return task, groups
}

func mustEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// tracedRun is a run's result with the step events it emitted.
type tracedRun struct {
	*RunResult
	Events []trace.Event
}

// runTraced runs cfg over task and groups, collecting every step event
// through Config.Event — the engine's only step channel.
func runTraced(t testing.TB, cfg Config, task *featurepipe.Task, groups *index.Groups) (tracedRun, error) {
	t.Helper()
	var events []trace.Event
	cfg.Event = func(ev trace.Event) { events = append(events, ev) }
	res, err := mustEngine(t, cfg).Run(task, groups)
	return tracedRun{res, events}, err
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Policy: "bogus"}); err == nil {
		t.Fatal("bad policy spec should fail")
	}
	if _, err := New(Config{Mode: "bogus"}); err == nil {
		t.Fatal("unknown mode should fail")
	}
	if _, err := New(Config{MaxInputs: -1}); err == nil {
		t.Fatal("negative MaxInputs should fail")
	}
	if _, err := New(Config{Reward: RewardKind(42)}); err == nil {
		t.Fatal("unknown reward should fail")
	}
	e := mustEngine(t, Config{})
	cfg := e.Config()
	if cfg.Policy != "eps-greedy:0.1" || cfg.EvalEvery != 25 || cfg.RewardSubsample != 50 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.EarlyStop.Window != 8 || cfg.EarlyStop.Patience != 2 || cfg.EarlyStop.MinInputs != 200 {
		t.Fatalf("early-stop defaults wrong: %+v", cfg.EarlyStop)
	}
}

func TestRunBasicAccounting(t *testing.T) {
	task, groups := imageTask(t, 2000, 200)
	res, err := runTraced(t, Config{Seed: 1, MaxInputs: 400}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputsProcessed != 400 || res.Stop != StopBudget {
		t.Fatalf("budget stop wrong: %d inputs, stop=%s", res.InputsProcessed, res.Stop)
	}
	if res.Produced != 400 {
		t.Fatalf("image task always produces: %d", res.Produced)
	}
	if res.Useful == 0 {
		t.Fatal("run found no useful inputs at all")
	}
	if len(res.Events) != 400 {
		t.Fatalf("trace has %d events", len(res.Events))
	}
	// Arm pulls sum to steps.
	total := int64(0)
	for _, a := range res.Arms {
		total += a.Pulls
	}
	if total != 400 {
		t.Fatalf("arm pulls sum to %d", total)
	}
	// Curve starts at 0 inputs and ends at the final step.
	if res.Curve[0].Inputs != 0 {
		t.Fatal("curve missing floor point")
	}
	if last := res.Curve[len(res.Curve)-1]; last.Inputs != 400 || last.Quality != res.FinalQuality {
		t.Fatalf("curve end wrong: %+v vs final %v", last, res.FinalQuality)
	}
	if res.SimTime != 0 {
		t.Fatal("zero cost model should yield zero sim time")
	}
}

func TestRunDeterministicReplay(t *testing.T) {
	task, groups := imageTask(t, 1500, 201)
	cfg := Config{Seed: 7, MaxInputs: 300}
	a, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTraced(t, cfg, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if a.InputsProcessed != b.InputsProcessed || a.FinalQuality != b.FinalQuality {
		t.Fatal("replay differs at summary level")
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.InputIdx != eb.InputIdx || ea.Arm != eb.Arm || ea.Reward != eb.Reward {
			t.Fatalf("replay diverged at step %d: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestRunSeedChangesTrajectory(t *testing.T) {
	task, groups := imageTask(t, 1500, 202)
	a, _ := runTraced(t, Config{Seed: 1, MaxInputs: 200}, task, groups)
	b, _ := runTraced(t, Config{Seed: 2, MaxInputs: 200}, task, groups)
	same := 0
	for i := range a.Events {
		if a.Events[i].InputIdx == b.Events[i].InputIdx {
			same++
		}
	}
	if same == len(a.Events) {
		t.Fatal("different seeds produced identical trajectories")
	}
}

func TestZombieNeverProcessesHoldout(t *testing.T) {
	task, groups := imageTask(t, 1000, 203)
	holdoutSet := map[int]bool{}
	for _, i := range task.HoldoutIdx {
		holdoutSet[i] = true
	}
	res, err := runTraced(t, Config{Seed: 3}, task, groups)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Events {
		if holdoutSet[ev.InputIdx] {
			t.Fatalf("step %d processed holdout input %d", ev.Step, ev.InputIdx)
		}
	}
	// Exhaustion: all pool inputs processed exactly once.
	if res.InputsProcessed != len(task.PoolIdx) || res.Stop != StopExhausted {
		t.Fatalf("exhaustion wrong: %d of %d, stop=%s", res.InputsProcessed, len(task.PoolIdx), res.Stop)
	}
	seen := map[int]int{}
	for _, ev := range res.Events {
		seen[ev.InputIdx]++
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("input %d processed %d times", idx, n)
		}
	}
}

func TestZombieBeatsRandomScanOnSkewedTask(t *testing.T) {
	// The headline property (experiment T2): at a fixed small budget, the
	// bandit over informative k-means groups reaches higher quality than
	// a random scan, because it concentrates on positive-rich groups.
	task, groups := imageTask(t, 6000, 204)
	budget := 600
	zombieWins := 0
	trials := 3
	for trial := 0; trial < trials; trial++ {
		seed := int64(300 + trial)
		e := mustEngine(t, Config{Seed: seed, MaxInputs: budget})
		z, err := e.Run(task, groups)
		if err != nil {
			t.Fatal(err)
		}
		s, err := mustEngine(t, Config{Seed: seed, MaxInputs: budget, Mode: ModeScanRandom}).Run(task, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The bandit must find substantially more useful inputs.
		if z.Useful > 2*s.Useful {
			zombieWins++
		}
		t.Logf("trial %d: zombie useful=%d q=%.3f | scan useful=%d q=%.3f",
			trial, z.Useful, z.FinalQuality, s.Useful, s.FinalQuality)
	}
	if zombieWins < 2 {
		t.Fatalf("zombie won only %d/%d trials on useful-input discovery", zombieWins, trials)
	}
}

func TestOracleDominatesZombie(t *testing.T) {
	task, groups := imageTask(t, 4000, 205)
	budget := 400
	e := mustEngine(t, Config{Seed: 9, MaxInputs: budget})
	z, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	o, err := mustEngine(t, Config{Seed: 9, MaxInputs: budget, Mode: ModeOracle}).Run(task, nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.Useful < z.Useful {
		t.Fatalf("oracle (%d useful) must dominate zombie (%d useful)", o.Useful, z.Useful)
	}
	// Within budget, every oracle input is useful until positives run out.
	if o.Useful != budget && o.Useful < z.Useful {
		t.Fatalf("oracle useful=%d under budget %d", o.Useful, budget)
	}
}

func TestMaxSimTimeBudget(t *testing.T) {
	task, groups := imageTask(t, 2000, 920)
	task.Cost = featurepipe.CostModel{PerInput: 100 * time.Millisecond}
	e := mustEngine(t, Config{Seed: 1, MaxSimTime: 10 * time.Second})
	res, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopBudget {
		t.Fatalf("stop = %s", res.Stop)
	}
	// 10s at 100ms/input = 100 inputs (+1 for the step that crosses).
	if res.InputsProcessed < 99 || res.InputsProcessed > 101 {
		t.Fatalf("processed %d inputs under a 100-input time budget", res.InputsProcessed)
	}
	if res.SimTime < 9*time.Second {
		t.Fatalf("sim time %v under budget", res.SimTime)
	}
	if _, err := New(Config{MaxSimTime: -1}); err == nil {
		t.Fatal("negative MaxSimTime should fail")
	}
}

func TestEarlyStopFiresOnPlateau(t *testing.T) {
	task, groups := wikiTask(t, 3000, 206)
	e := mustEngine(t, Config{
		Seed: 11,
		EarlyStop: EarlyStopConfig{
			Enabled:        true,
			Window:         6,
			SlopeThreshold: 0.004,
			Patience:       2,
			MinInputs:      300,
		},
	})
	res, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopEarly {
		t.Fatalf("expected early stop, got %s after %d inputs", res.Stop, res.InputsProcessed)
	}
	if res.InputsProcessed < 300 {
		t.Fatalf("stopped before MinInputs: %d", res.InputsProcessed)
	}
	if res.InputsProcessed >= len(task.PoolIdx) {
		t.Fatal("early stop saved nothing")
	}
	// The early-stopped quality should be close to the full-run quality.
	full := mustEngine(t, Config{Seed: 11})
	fres, err := full.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if fres.FinalQuality-res.FinalQuality > 0.1 {
		t.Fatalf("early stop lost too much quality: %.3f vs %.3f", res.FinalQuality, fres.FinalQuality)
	}
}

func TestEarlyStopDisabledRunsToExhaustion(t *testing.T) {
	task, groups := wikiTask(t, 1200, 207)
	e := mustEngine(t, Config{Seed: 13})
	res, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopExhausted || res.InputsProcessed != len(task.PoolIdx) {
		t.Fatalf("expected exhaustion: %s after %d/%d", res.Stop, res.InputsProcessed, len(task.PoolIdx))
	}
}

func TestScanSequentialVsRandomOrders(t *testing.T) {
	task, _ := imageTask(t, 800, 208)
	seq, err := runTraced(t, Config{Seed: 15, MaxInputs: 100, Mode: ModeScanSequential}, task, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential scan must process pool indices in ascending order.
	prev := -1
	for _, ev := range seq.Events {
		if ev.InputIdx <= prev {
			t.Fatalf("sequential scan out of order: %d after %d", ev.InputIdx, prev)
		}
		prev = ev.InputIdx
	}
	rnd, err := runTraced(t, Config{Seed: 15, MaxInputs: 100, Mode: ModeScanRandom}, task, nil)
	if err != nil {
		t.Fatal(err)
	}
	ordered := true
	prev = -1
	for _, ev := range rnd.Events {
		if ev.InputIdx <= prev {
			ordered = false
			break
		}
		prev = ev.InputIdx
	}
	if ordered {
		t.Fatal("random scan came out sorted; shuffle missing")
	}
	if seq.Arms != nil || rnd.Arms != nil {
		t.Fatal("scan results should have no arm stats")
	}
}

func TestRewardKindsAllRun(t *testing.T) {
	task, groups := imageTask(t, 1200, 209)
	for _, reward := range []RewardKind{RewardUsefulness, RewardQualityDelta, RewardHybrid} {
		e := mustEngine(t, Config{Seed: 17, Reward: reward, MaxInputs: 150, RewardSubsample: 30})
		res, err := e.Run(task, groups)
		if err != nil {
			t.Fatalf("%s: %v", reward, err)
		}
		if res.InputsProcessed != 150 {
			t.Fatalf("%s: processed %d", reward, res.InputsProcessed)
		}
	}
}

func TestRewardKindString(t *testing.T) {
	if RewardUsefulness.String() != "usefulness" ||
		RewardQualityDelta.String() != "quality-delta" ||
		RewardHybrid.String() != "hybrid" {
		t.Fatal("reward labels wrong")
	}
	if RewardKind(9).String() != "RewardKind(9)" {
		t.Fatal("unknown reward label wrong")
	}
}

func TestStopReasonString(t *testing.T) {
	if StopExhausted.String() != "exhausted" || StopBudget.String() != "budget" || StopEarly.String() != "early-stop" {
		t.Fatal("stop labels wrong")
	}
	if StopReason(9).String() != "StopReason(9)" {
		t.Fatal("unknown stop label wrong")
	}
}

func TestFaultyFeatureCodeSurvives(t *testing.T) {
	task, groups := wikiTask(t, 1500, 210)
	exempt := map[string]bool{}
	for _, i := range task.HoldoutIdx {
		exempt[task.Store.Get(i).ID] = true
	}
	task.Feature = &featurepipe.FaultyFeature{Inner: task.Feature, ErrPct: 10, PanicPct: 5, Exempt: exempt}
	e := mustEngine(t, Config{Seed: 19, MaxInputs: 500})
	res, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("no injected failures observed")
	}
	if res.InputsProcessed != 500 {
		t.Fatalf("faults truncated the run: %d", res.InputsProcessed)
	}
	if res.FinalQuality <= 0 {
		t.Fatal("model learned nothing despite survivable faults")
	}
}

func TestRunErrorsOnMismatchedGroups(t *testing.T) {
	task, _ := imageTask(t, 500, 211)
	otherTask, otherGroups := imageTask(t, 700, 212)
	_ = otherTask
	e := mustEngine(t, Config{Seed: 21})
	if _, err := e.Run(task, otherGroups); err == nil {
		t.Fatal("groups over a different corpus size should fail")
	}
	if _, err := e.Run(task, nil); err == nil {
		t.Fatal("nil groups should fail")
	}
}

func TestResultHelpers(t *testing.T) {
	r := &RunResult{
		Task: "t", Strategy: "s",
		Curve: []CurvePoint{
			{Inputs: 0, Quality: 0},
			{Inputs: 25, Quality: 0.5},
			{Inputs: 50, Quality: 0.8},
		},
		InputsProcessed: 50,
		Useful:          10,
	}
	if in, _, ok := r.InputsToQuality(0.5); !ok || in != 25 {
		t.Fatalf("InputsToQuality(0.5) = %d, %v", in, ok)
	}
	if _, _, ok := r.InputsToQuality(0.95); ok {
		t.Fatal("unreachable quality reported reached")
	}
	if r.UsefulRate() != 0.2 {
		t.Fatalf("UsefulRate = %v", r.UsefulRate())
	}
	if (&RunResult{}).UsefulRate() != 0 {
		t.Fatal("empty UsefulRate should be 0")
	}
	if r.Summary() == "" {
		t.Fatal("Summary empty")
	}
}

func TestBanditSourceExhaustsEveryGroup(t *testing.T) {
	// Force a tiny corpus with more groups than the pool can sustain;
	// every arm must drain without panics.
	task, groups := imageTask(t, 200, 213)
	e := mustEngine(t, Config{Seed: 23, Policy: "round-robin"})
	res, err := e.Run(task, groups)
	if err != nil {
		t.Fatal(err)
	}
	if res.InputsProcessed != len(task.PoolIdx) {
		t.Fatalf("drained %d of %d", res.InputsProcessed, len(task.PoolIdx))
	}
}

func TestAllPolicySpecsRunEndToEnd(t *testing.T) {
	task, groups := imageTask(t, 800, 214)
	for _, spec := range bandit.KnownSpecs() {
		e := mustEngine(t, Config{Seed: 25, Policy: bandit.Spec(spec), MaxInputs: 100})
		if _, err := e.Run(task, groups); err != nil {
			t.Fatalf("policy %q: %v", spec, err)
		}
	}
}

func TestWindowedStatsConfigRuns(t *testing.T) {
	task, groups := imageTask(t, 800, 215)
	e := mustEngine(t, Config{
		Seed:        27,
		PolicyStats: bandit.StatsConfig{Kind: bandit.Windowed, Window: 50},
		MaxInputs:   200,
	})
	if _, err := e.Run(task, groups); err != nil {
		t.Fatal(err)
	}
}
