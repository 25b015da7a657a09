package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/corpus"
	"zombie/internal/dist"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/learner"
	"zombie/internal/recipe"
	"zombie/internal/rng"
	"zombie/internal/runstore"
)

// A rung is a direct timed call into one package's public function,
// replayed on the workload's own inputs and reported as a median of N.
// Rungs run on the traced pass only, after the measured window.

// timeEach times n single calls and returns the median seconds of one.
func timeEach(n int, fn func()) float64 {
	walls := make([]float64, n)
	for i := range walls {
		t := time.Now()
		fn()
		walls[i] = time.Since(t).Seconds()
	}
	return median(walls)
}

// timeLoop is for calls too short to time one by one: it times reps loops
// of n calls each and returns the median loop's seconds per call.
func timeLoop(reps, n int, fn func(i int)) float64 {
	return timeEach(reps, func() {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}) / float64(n)
}

// allocsPer returns heap allocations per call over n calls.
func allocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// rungSample is how many pool inputs the extraction rungs replay.
const rungSample = 512

// ladderRung holds one feature version's rungs of the inner loop.
type ladderRung struct {
	holdoutS, extractS, fitS, evalS, dotS float64
	extractAllocs, evalAllocs             float64
}

// innerLadder measures the inner loop's rungs for one task: holdout build,
// per-input extraction, per-example fit, one holdout evaluation, and the
// vector-times-weights kernel underneath the learner.
func (e *env) innerLadder(task *featurepipe.Task) (ladderRung, error) {
	var r ladderRung
	var hold *learner.Holdout
	var err error
	r.holdoutS = timeEach(3, func() { hold, _, err = task.BuildHoldoutTolerant() })
	if err != nil {
		return r, err
	}
	n := min(rungSample, len(task.PoolIdx))
	inputs := make([]*corpus.Input, n)
	for i := range inputs {
		inputs[i] = task.Store.Get(task.PoolIdx[i])
	}
	var examples []learner.Example
	for _, in := range inputs {
		res, err := task.Feature.Extract(in)
		if err != nil {
			return r, err
		}
		if res.Produced {
			examples = append(examples, res.Example)
		}
	}
	if len(examples) == 0 {
		return r, fmt.Errorf("feature %s produced no example from %d inputs", task.Feature.Name(), n)
	}
	extract := func(i int) { task.Feature.Extract(inputs[i]) } //nolint:errcheck // checked above
	r.extractS = timeLoop(5, n, extract)
	r.extractAllocs = allocsPer(n, extract)

	model := task.NewModel(task.Feature)
	fit := func(i int) { model.PartialFit(examples[i%len(examples)]) }
	r.fitS = timeLoop(5, max(len(examples), 256), fit)

	var sink float64
	eval := func(int) { sink += hold.Quality(model) }
	r.evalS = timeEach(e.iters(21), func() { eval(0) })
	r.evalAllocs = allocsPer(5, eval)

	w := make([]float64, task.Feature.Dim())
	for i := range w {
		w[i] = float64(i%7) - 3
	}
	r.dotS = timeLoop(5, 4096, func(i int) { sink += examples[i%len(examples)].Features.Dot(w) })
	if sink == 0.12345 { // keeps the compiler from discarding the measured calls
		fmt.Println(sink)
	}
	return r, nil
}

// banditRungs times one select-and-update of the workload's policy over
// the index's arm count, and one warm-start seeding from a used policy.
func (e *env) banditRungs(spec bandit.Spec) (selectUpdateS float64) {
	build := func() bandit.Policy {
		return spec.MustBuild(indexK, bandit.DefaultStats(), rng.New(e.cfg.seed).Split("rung-policy"))
	}
	p := build()
	eligible := bandit.AllEligible(indexK)
	selectUpdateS = timeLoop(5, 20000, func(i int) {
		a := p.Select(eligible)
		p.Update(a, float64(i&1))
	})
	// Each seeding needs a fresh policy, built outside the timed call.
	snaps := p.Snapshot()
	seedS := make([]float64, 11)
	for i := range seedS {
		fresh := build()
		t := time.Now()
		bandit.Seed(fresh, snaps, 0.5) //nolint:errcheck // arms and decay are valid by construction
		seedS[i] = time.Since(t).Seconds()
	}
	e.set("bandit.select_update_ns", selectUpdateS*1e9, 5)
	e.set("bandit.seed_us", median(seedS)*1e6, len(seedS))
	return selectUpdateS
}

// ladderCoverage is the share of the measured runs' wall the rungs account
// for: each run's rungs times its own counts, summed, over the summed wall.
func ladderCoverage(samples []runSample, rungs map[int]ladderRung, selectUpdateS float64) float64 {
	predicted, wall := 0.0, 0.0
	for _, s := range samples {
		r := rungs[s.version]
		// Every produced example is fitted twice: into the loop's model and,
		// replayed at the next evaluation point, into the evaluation model.
		predicted += r.holdoutS + float64(s.inputs)*(r.extractS+selectUpdateS) +
			2*float64(s.produced)*r.fitS + float64(s.evals)*r.evalS
		wall += s.wall
	}
	if wall == 0 {
		return 0
	}
	return predicted / wall
}

// reportLadder sets the learner/featurepipe/linalg rungs as the mean over
// the versions measured, under the sparse or the dense names.
func (e *env) reportLadder(rungs map[int]ladderRung, sparse bool, extractMetric string) {
	var mean ladderRung
	n := float64(len(rungs))
	for _, r := range rungs {
		mean.holdoutS += r.holdoutS / n
		mean.extractS += r.extractS / n
		mean.fitS += r.fitS / n
		mean.evalS += r.evalS / n
		mean.dotS += r.dotS / n
		mean.extractAllocs += r.extractAllocs / n
		mean.evalAllocs += r.evalAllocs / n
	}
	k := len(rungs)
	e.set(extractMetric, mean.extractS*1e6, k)
	e.set("featurepipe.holdout_build_ms", mean.holdoutS*1e3, k)
	e.set("featurepipe.extract_allocs", mean.extractAllocs, k)
	e.set("learner.eval_allocs", mean.evalAllocs, k)
	if sparse {
		e.set("learner.eval_sparse_ms", mean.evalS*1e3, k)
		e.set("learner.fit_sparse_ns", mean.fitS*1e9, k)
		e.set("linalg.dot_sparse_ns", mean.dotS*1e9, k)
	} else {
		e.set("learner.eval_dense_ms", mean.evalS*1e3, k)
		e.set("learner.fit_dense_ns", mean.fitS*1e9, k)
		e.set("linalg.dot_dense_ns", mean.dotS*1e9, k)
	}
}

func (e *env) wikiRungs(st *inprocState, samples []runSample) {
	rungs := map[int]ladderRung{}
	for v := 1; v <= wikiVersions; v++ {
		r, err := e.innerLadder(st.tasks[v])
		if err != nil {
			e.fail("rungs wiki-v%d: %v", v, err)
			return
		}
		rungs[v] = r
	}
	e.reportLadder(rungs, true, "featurepipe.extract_wiki_us")
	sel := e.banditRungs("eps-greedy:0.1")
	e.set("core.ladder_coverage", ladderCoverage(samples, rungs, sel), len(samples))
}

func (e *env) songRungs(st *inprocState, samples []runSample) {
	r, err := e.innerLadder(st.tasks[1])
	if err != nil {
		e.fail("rungs songs-v1: %v", err)
		return
	}
	rungs := map[int]ladderRung{1: r}
	e.reportLadder(rungs, false, "featurepipe.extract_song_us")
	sel := e.banditRungs("eps-decay:0.9:0.002")
	e.set("core.ladder_coverage", ladderCoverage(samples, rungs, sel), len(samples))
}

// codecRungs times the extraction-result codec — the bytes the cache
// accounts and the dist wire carries — over real extraction results.
func (e *env) codecRungs(results []featurepipe.Result) {
	var codec featurepipe.ResultCodec
	encoded := make([][]byte, len(results))
	bytes := 0
	for i, r := range results {
		b, err := codec.Encode(r)
		if err != nil {
			e.fail("rungs codec: %v", err)
			return
		}
		encoded[i], bytes = b, bytes+len(b)
	}
	n := len(results)
	e.set("featurepipe.codec_encode_ns", timeLoop(5, n, func(i int) { codec.Encode(results[i]) })*1e9, 5) //nolint:errcheck // checked above
	e.set("featurepipe.codec_decode_ns", timeLoop(5, n, func(i int) { codec.Decode(encoded[i]) })*1e9, 5) //nolint:errcheck // decodes what Encode just wrote
	e.set("featurepipe.codec_bytes", float64(bytes)/float64(n), n)
}

// extractSample runs feature code over the first pool inputs of a task.
func extractSample(task *featurepipe.Task, f featurepipe.FeatureFunc, n int) ([]*corpus.Input, []featurepipe.Result, error) {
	n = min(n, len(task.PoolIdx))
	inputs := make([]*corpus.Input, n)
	results := make([]featurepipe.Result, n)
	for i := range inputs {
		inputs[i] = task.Store.Get(task.PoolIdx[i])
		res, err := f.Extract(inputs[i])
		if err != nil {
			return nil, nil, err
		}
		results[i] = res
	}
	return inputs, results, nil
}

func (e *env) sessionRungs(st *inprocState, recipes []*recipe.Recipe) {
	rungs := map[int]ladderRung{}
	for i, rc := range recipes {
		r, err := e.innerLadder(st.tasks[1].WithFeature(rc.Feature()))
		if err != nil {
			e.fail("rungs session v%d: %v", i+1, err)
			return
		}
		rungs[i+1] = r
	}
	e.reportLadder(rungs, true, "featurepipe.extract_composite_us")
	e.banditRungs("eps-greedy:0.1")

	parts := recipes[0].Parts()
	e.set("recipe.compile_us", timeEach(21, func() { recipe.New("cwiki", parts) })*1e6, 21) //nolint:errcheck // the same parts compiled in set-up

	inputs, results, err := extractSample(st.tasks[1], recipes[0].Feature(), 4096)
	if err != nil {
		e.fail("rungs session: %v", err)
		return
	}
	e.codecRungs(results)
	// One part's worth of cache traffic: a miss computes (here: returns a
	// ready result), encodes for byte accounting and inserts; a hit finds.
	cache, err := featcache.Open(featcache.Config{MaxBytes: sessionCacheBytes}, featurepipe.ResultCodec{})
	if err != nil {
		e.fail("rungs featcache: %v", err)
		return
	}
	defer cache.Close()
	fp := featurepipe.FingerprintOf(recipes[0].Feature())
	lookup := func(i int) {
		cache.GetOrCompute(fp, inputs[i].ID, func() (any, error) { return results[i], nil }) //nolint:errcheck // compute cannot fail
	}
	n := len(inputs)
	e.set("featcache.miss_ns", timeLoop(1, n, lookup)*1e9, n)
	e.set("featcache.hit_ns", timeLoop(5, n, lookup)*1e9, n)
}

// wireRungs times the dist wire format on real extraction results: a
// 16-result StepBatchResponse, encoded the way a worker answers and decoded
// the way the coordinator reads it.
func (e *env) wireRungs(cs *corpusSetup) {
	ins, err := corpus.ReadJSONL(cs.path)
	if err != nil {
		e.fail("rungs wire: %v", err)
		return
	}
	store := corpus.NewMemStore(ins)
	const batch = 16
	var encodeS, decodeS, bytes []float64
	var all []featurepipe.Result
	for v := 1; v <= wikiVersions; v++ {
		f := featurepipe.NewWikiFeature(v)
		resp := dist.StepBatchResponse{Items: make([]dist.StepBatchItem, batch)}
		for i := range resp.Items {
			in := store.Get(i % store.Len())
			res, err := f.Extract(in)
			if err != nil {
				e.fail("rungs wire: %v", err)
				return
			}
			all = append(all, res)
			resp.Items[i].StepResponse = dist.StepResponse{
				InputID: in.ID, CostNanos: int64(150 * time.Millisecond),
				ReadNanos: 1000, ExtractNanos: 10000, Result: res,
			}
		}
		var wire []byte
		encodeS = append(encodeS, timeEach(e.iters(201), func() {
			out := resp
			out.Items = append([]dist.StepBatchItem(nil), resp.Items...)
			if err = out.EncodeResults(); err == nil {
				wire, err = json.Marshal(&out)
			}
		}))
		if err != nil {
			e.fail("rungs wire encode: %v", err)
			return
		}
		decodeS = append(decodeS, timeEach(e.iters(201), func() {
			var in dist.StepBatchResponse
			if err = json.Unmarshal(wire, &in); err == nil {
				err = in.DecodeResults()
			}
		}))
		if err != nil {
			e.fail("rungs wire decode: %v", err)
			return
		}
		bytes = append(bytes, float64(len(wire))/batch)
	}
	e.set("dist.encode_us", sum(encodeS)/float64(len(encodeS))*1e6, len(encodeS))
	e.set("dist.decode_us", sum(decodeS)/float64(len(decodeS))*1e6, len(decodeS))
	e.set("dist.bytes_per_input", sum(bytes)/float64(len(bytes)), len(bytes))
	e.codecRungs(all)
}

// copyStateDir copies a server's state directory, so recovery can be
// replayed on the copy while the original stays with its server.
func copyStateDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runstoreRungs times one 256-byte journal append, and recovery of a copy
// of the state directory the measured server wrote.
func (e *env) runstoreRungs(stateDir string) {
	j, err := runstore.OpenJournal(filepath.Join(e.cfg.workDir, "rung.wal"), nil)
	if err != nil {
		e.fail("rungs journal: %v", err)
		return
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	n := e.iters(2000)
	e.set("runstore.append_us", timeEach(n, func() { err = j.Append(payload) })*1e6, n)
	j.Close()
	if err != nil {
		e.fail("rungs journal append: %v", err)
		return
	}

	var walls []float64
	for i := 0; i < 5; i++ {
		dir := filepath.Join(e.cfg.workDir, fmt.Sprintf("recover-%d", i))
		if err := copyStateDir(stateDir, dir); err != nil {
			e.fail("rungs recovery: %v", err)
			return
		}
		t := time.Now()
		s, err := runstore.Open(dir, func([]byte) error { return nil }, func([]byte) error { return nil })
		walls = append(walls, time.Since(t).Seconds())
		if err != nil {
			e.fail("rungs recovery: %v", err)
			return
		}
		s.Close()
	}
	e.set("runstore.recovery_ms", median(walls)*1e3, len(walls))
}
