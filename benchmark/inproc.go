package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"zombie/internal/core"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/learner"
	"zombie/internal/recipe"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// indexK is the number of index groups every workload uses: the paper's
// and the service's default.
const indexK = 32

// wikiVersions is how many canonical versions the wiki feature code has.
const wikiVersions = 8

// inprocState is what an in-process workload's set-up leaves behind.
type inprocState struct {
	corpus *corpusSetup
	// tasks holds one task per feature version (index 0 unused). All share
	// one pool/holdout split: the split depends on the data seed alone.
	tasks  []*featurepipe.Task
	groups *index.Groups
	indexS float64
}

// setupInproc builds a corpus, its tasks and its index the way the service
// does for a submitted run (workload.Build, the same seed substreams), so
// in-process and served runs of one spec are the same computation.
func (e *env) setupInproc(kind string, versions int, parent spanID) (*inprocState, error) {
	cs, err := e.buildCorpus(kind, parent, true)
	if err != nil {
		return nil, err
	}
	st := &inprocState{corpus: cs, tasks: make([]*featurepipe.Task, versions+1)}
	var grouper index.Grouper
	for v := 1; v <= versions; v++ {
		task, g, err := workload.Build(kind, cs.store, v, rng.New(e.cfg.dataSeed).Split("task"))
		if err != nil {
			return nil, err
		}
		st.tasks[v], grouper = task, g
	}
	sp := e.tr.start(parent, 0, 0, "index.build")
	t := time.Now()
	st.groups, err = grouper.Group(cs.store, indexK, rng.New(e.cfg.dataSeed).Split("index"))
	st.indexS = time.Since(t).Seconds()
	e.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("index build: %w", err)
	}
	return st, nil
}

// engineSeed is the seed of the cycle's es-th engine: part of the script
// every pass shares.
func (e *env) engineSeed(es int) int64 { return e.cfg.dataSeed + 1 + int64(es) }

// timedExecutor is the traced pass's decorator around the engine's
// execution seam: it records a span per call, which splits a run's wall
// into the execution side (these spans) and the decision side (the op
// span's self time). It wraps core.Executor only — never a model or a
// feature, whose optional interfaces the program type-asserts on.
type timedExecutor struct {
	inner  *core.LocalExecutor
	tr     *tracer
	parent spanID
	run    int
}

func (x *timedExecutor) BuildHoldout(ctx context.Context) (*learner.Holdout, []featurepipe.HoldoutSkip, error) {
	sp := x.tr.start(x.parent, x.run, 0, "exec.build_holdout")
	defer x.tr.end(sp)
	return x.inner.BuildHoldout(ctx)
}

func (x *timedExecutor) ExecuteStep(ctx context.Context, step, idx int) (core.StepOutcome, error) {
	sp := x.tr.start(x.parent, x.run, 0, "exec.batch")
	defer x.tr.end(sp)
	return x.inner.ExecuteStep(ctx, step, idx)
}

func (x *timedExecutor) ExecuteBatch(ctx context.Context, firstStep int, idxs []int) ([]core.StepOutcome, []error) {
	sp := x.tr.start(x.parent, x.run, 0, "exec.batch")
	defer x.tr.end(sp)
	return x.inner.ExecuteBatch(ctx, firstStep, idxs)
}

func (x *timedExecutor) Stats() core.ExecutorStats { return x.inner.Stats() }

// checkResult applies the per-run correctness rules: the run finished of
// its own accord with a curve and nothing quarantined. That a verdict is
// better than nothing is checked on the window's median quality, not per
// run: on some data single early stops fire on a curve still flat at 0.
func (e *env) checkResult(spec string, res *core.RunResult) {
	switch {
	case res.Stop == core.StopCancelled || res.Stop == core.StopFailed:
		e.fail("%s ended %s", spec, res.Stop)
	case len(res.Curve) == 0:
		e.fail("%s has an empty curve", spec)
	case len(res.Quarantined) > 0:
		e.fail("%s quarantined %d inputs", spec, len(res.Quarantined))
	}
}

func resultCurve(res *core.RunResult) []curvePoint {
	out := make([]curvePoint, len(res.Curve))
	for i, p := range res.Curve {
		out[i] = curvePoint{Inputs: p.Inputs, Quality: p.Quality, SimSeconds: p.SimTime.Seconds()}
	}
	return out
}

func sampleOf(res *core.RunResult, wall time.Duration, spec, version int, traced bool) runSample {
	return runSample{
		spec: spec, end: time.Now(), wall: wall.Seconds(), engineWall: res.WallTime.Seconds(),
		inputs: res.InputsProcessed, quality: res.FinalQuality,
		evals: len(res.Curve), produced: res.Produced, version: version,
		phaseMs: res.Phases.Millis(), traced: traced,
	}
}

// runSpec is one in-process evaluation run: a label that identifies it for
// replay checks, the engine configuration and the feature version.
type runSpec struct {
	label   string
	cfg     core.Config
	version int
}

// engineRun executes one evaluation run in-process through the engine's
// public entry point and returns it as a sample. op is the run's id; with
// traced set the execution seam is wrapped in the timing decorator.
func (e *env) engineRun(st *inprocState, spec int, rs runSpec, op int, traced bool) (s runSample, ok bool, err error) {
	e.res.Attempted++
	task := st.tasks[rs.version]
	eng, err := core.New(rs.cfg)
	if err != nil {
		return runSample{}, false, err
	}
	var tr *tracer
	if traced {
		tr = e.tr
	}
	local := core.NewLocalExecutor(task, rs.cfg.Cache, nil)
	var exec core.Executor = local
	sp := tr.start(e.root, op, 0, "op")
	if traced {
		exec = &timedExecutor{inner: local, tr: tr, parent: sp, run: op}
	}
	t := time.Now()
	res, err := eng.RunWithExecutor(context.Background(), task, st.groups, exec)
	wall := time.Since(t)
	tr.end(sp)
	if err != nil {
		e.fail("%s: %v", rs.label, err)
		return runSample{}, false, nil
	}
	e.checkResult(rs.label, res)
	e.checkReplay(rs.label, hashCurve(resultCurve(res)))
	return sampleOf(res, wall, spec, rs.version, traced), true, nil
}

// engineWindow is the measured window of an in-process run workload: a
// closed loop of engine runs round a cycle of specs.
func (e *env) engineWindow(st *inprocState, cycle int, specOf func(spec int) runSpec) ([]runSample, error) {
	var samples []runSample
	order := e.order(cycle, "specs")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start, err := e.window(e.minOps(cycle), func(i int) error {
		spec, traced := e.specAt(order, i)
		s, ok, err := e.engineRun(st, spec, specOf(spec), i+1, traced)
		if ok {
			samples = append(samples, s)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)
	e.reportRuns(samples, start, cycle)
	if in := e.res.Metrics["core.inputs"].Value; in > 0 {
		e.set("core.allocs_per_input", float64(after.Mallocs-before.Mallocs)/in, int(in))
	}
	e.set("peak_rss_mb", selfPeakRSS(), 1)
	if e.cfg.trace {
		total, self := e.tr.spanTotals()
		traced := len(samples) / 2
		e.set("core.exec_s", total["exec.build_holdout"]+total["exec.batch"], traced)
		e.set("core.decide_s", self["op"], traced)
	}
	return samples, nil
}

func runWikiVerdict(e *env) error {
	st, err := repeatSetup(e, func(parent spanID) (*inprocState, error) {
		return e.setupInproc("wiki", wikiVersions, parent)
	}, func(*inprocState) {})
	if err != nil {
		return err
	}
	// The paper's inner loop as the engineer feels it: eps-greedy(0.1),
	// usefulness reward, early stop, one input per arm pull, no cache.
	samples, err := e.engineWindow(st, cycleOps["wiki_verdict"], func(spec int) runSpec {
		es, v := spec/wikiVersions, spec%wikiVersions+1
		cfg := core.Config{
			Policy:    "eps-greedy:0.1",
			Reward:    core.RewardUsefulness,
			EarlyStop: core.EarlyStopConfig{Enabled: true},
			BatchSize: 1,
			Seed:      e.engineSeed(es),
		}
		return runSpec{fmt.Sprintf("wiki-v%d/seed+%d", v, es+1), cfg, v}
	})
	if err != nil {
		return err
	}
	if e.cfg.trace {
		st.corpus.report(e)
		e.set("index.build_text_s", st.indexS, 1)
		e.rungs(func() { e.wikiRungs(st, samples) })
	}
	return nil
}

func runSongsExhaust(e *env) error {
	st, err := repeatSetup(e, func(parent spanID) (*inprocState, error) {
		return e.setupInproc("songs", 1, parent)
	}, func(*inprocState) {})
	if err != nil {
		return err
	}
	// Throughput of the loop itself: no early stop, no input budget.
	samples, err := e.engineWindow(st, cycleOps["songs_exhaust"], func(spec int) runSpec {
		cfg := core.Config{
			Policy:    "eps-decay:0.9:0.002",
			BatchSize: 16,
			Seed:      e.engineSeed(spec),
		}
		return runSpec{fmt.Sprintf("songs-v1/seed+%d", spec+1), cfg, 1}
	})
	if err != nil {
		return err
	}
	if e.cfg.trace {
		st.corpus.report(e)
		e.set("index.build_numeric_s", st.indexS, 1)
		e.rungs(func() { e.songRungs(st, samples) })
	}
	return nil
}

// sessionRecipes is the issue's edit sequence: three wiki parts, one part
// edited per version — {2,4,5} -> {2,4,6} -> {3,4,6} -> {3,4,8}.
func sessionRecipes() ([]*recipe.Recipe, error) {
	var out []*recipe.Recipe
	for _, v := range [][3]int{{2, 4, 5}, {2, 4, 6}, {3, 4, 6}, {3, 4, 8}} {
		r, err := recipe.New("cwiki", []recipe.Part{
			{Name: "base", Kind: "wiki", Version: v[0]},
			{Name: "mid", Kind: "wiki", Version: v[1], Deps: []string{"base"}},
			{Name: "top", Kind: "wiki", Version: v[2], Deps: []string{"mid"}},
		})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// sessionCacheBytes holds a whole session without eviction (it needs
// ~11 MiB at 20k inputs), so the warm pass can hit on every extraction.
const sessionCacheBytes = 256 << 20

// sessionPass is one pass of a session: the four versions submitted to a
// fresh recipe.Session over the given cache.
type sessionPass struct {
	samples  []runSample
	versions []*recipe.Version
	wall     float64
}

// runSessionPass submits the four versions and returns what each did. es
// is the engine seed's place in the cycle; it and the version make the spec.
func (e *env) runSessionPass(st *inprocState, recipes []*recipe.Recipe, cache *featcache.Cache, es, op int, traced bool) (*sessionPass, error) {
	var tr *tracer
	if traced {
		tr = e.tr
	}
	sess, err := recipe.NewSession("bench", st.tasks[1], st.groups, recipe.Config{
		Decay: 0.5,
		Engine: core.Config{
			Seed:      e.engineSeed(es),
			EarlyStop: core.EarlyStopConfig{Enabled: true},
			BatchSize: 1,
			Cache:     cache,
		},
	})
	if err != nil {
		return nil, err
	}
	p := &sessionPass{}
	sp := tr.start(e.root, op, 0, "op")
	start := time.Now()
	for i, r := range recipes {
		e.res.Attempted++
		label := fmt.Sprintf("session/seed+%d/v%d", es+1, i+1)
		vs := tr.start(sp, op, 0, "version")
		t := time.Now()
		v, err := sess.Submit(context.Background(), r)
		w := time.Since(t)
		tr.end(vs)
		if err != nil {
			e.fail("%s: %v", label, err)
			continue
		}
		e.checkResult(label, v.Run)
		e.checkReplay(label, hashCurve(resultCurve(v.Run)))
		p.samples = append(p.samples, sampleOf(v.Run, w, es*len(recipes)+i, i+1, traced))
		p.versions = append(p.versions, v)
	}
	p.wall = time.Since(start).Seconds()
	tr.end(sp)
	return p, nil
}

func runWikiSession(e *env) error {
	st, err := repeatSetup(e, func(parent spanID) (*inprocState, error) {
		return e.setupInproc("wiki", 1, parent)
	}, func(*inprocState) {})
	if err != nil {
		return err
	}
	recipes, err := sessionRecipes()
	if err != nil {
		return err
	}
	var samples []runSample
	var overheadMs []float64
	// cold and warm hold each session pass as a sample whose spec is the
	// engine seed, so they reduce to per-seed medians like any run.
	var cold, warm []runSample
	var hits, misses, warmHits, warmMisses, seeded, evictions, cacheBytes int64
	// One op is a pair of session passes over one engine seed: cold on a
	// new cache (misses and inserts, part-level hits, warm-start seeding),
	// then warm on the cache the cold pass filled (every extraction a hit).
	// The warm pass is the cold pass's replay: its curves must be the same.
	cycle := cycleOps["wiki_session"]
	order := e.order(cycle, "specs")
	start, err := e.window(e.minOps(cycle), func(i int) error {
		es, traced := e.specAt(order, i)
		cache, err := featcache.Open(featcache.Config{MaxBytes: sessionCacheBytes}, featurepipe.ResultCodec{})
		if err != nil {
			return err
		}
		defer cache.Close()
		c, err := e.runSessionPass(st, recipes, cache, es, 2*i+1, traced)
		if err != nil {
			return err
		}
		afterCold := cache.Stats()
		w, err := e.runSessionPass(st, recipes, cache, es, 2*i+2, traced)
		if err != nil {
			return err
		}
		afterWarm := cache.Stats()
		if len(c.samples) != len(recipes) || len(w.samples) != len(recipes) {
			return nil // the failed Submit was already counted
		}
		if m := afterWarm.Misses - afterCold.Misses; m != 0 {
			e.fail("session seed+%d: warm pass missed the cache %d times", es+1, m)
		}
		for v := range recipes {
			overheadMs = append(overheadMs, (c.samples[v].wall-c.samples[v].engineWall)*1e3)
			seeded += c.versions[v].WarmStart.SeededPulls
		}
		samples = append(append(samples, c.samples...), w.samples...)
		cold = append(cold, runSample{spec: es, wall: c.wall})
		warm = append(warm, runSample{spec: es, wall: w.wall})
		hits, misses = hits+afterWarm.Hits, misses+afterWarm.Misses
		warmHits += afterWarm.Hits - afterCold.Hits
		warmMisses += afterWarm.Misses - afterCold.Misses
		evictions += afterWarm.Evictions
		cacheBytes = afterWarm.Bytes
		return nil
	})
	if err != nil {
		return err
	}
	e.reportRuns(samples, start, cycle*2*len(recipes))
	// The run this workload's caller waits for is the four-version session
	// on a cold cache; the warm pass is reported beside it, per layer.
	wallOf := func(r runSample) float64 { return r.wall }
	coldS, warmS := median(perSpec(cold, wallOf)), median(perSpec(warm, wallOf))
	e.set("run_s_p50", coldS, len(cold))
	e.set("peak_rss_mb", selfPeakRSS(), 1)
	e.set("recipe.session_cold_s_p50", coldS, len(cold))
	e.set("recipe.session_warm_s_p50", warmS, len(warm))
	e.set("recipe.submit_overhead_ms", median(overheadMs), len(overheadMs))
	e.set("recipe.seeded_pulls", float64(seeded), len(cold))
	e.set("featcache.hits", float64(hits), len(cold))
	e.set("featcache.misses", float64(misses), len(cold))
	if hits+misses > 0 {
		e.set("featcache.hit_ratio", float64(hits)/float64(hits+misses), int(hits+misses))
	}
	if warmHits+warmMisses > 0 {
		e.set("featcache.warm_hit_ratio", float64(warmHits)/float64(warmHits+warmMisses), int(warmHits+warmMisses))
	}
	e.set("featcache.evictions", float64(evictions), len(cold))
	e.set("featcache.bytes", float64(cacheBytes), 1)
	if e.cfg.trace {
		st.corpus.report(e)
		e.set("index.build_text_s", st.indexS, 1)
		e.rungs(func() { e.sessionRungs(st, recipes) })
	}
	return nil
}

// rungs runs a workload's ladder of direct timed calls under one span.
func (e *env) rungs(run func()) {
	sp := e.tr.start(e.root, 0, 0, "rungs")
	run()
	e.tr.end(sp)
}
