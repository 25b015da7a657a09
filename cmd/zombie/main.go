// Command zombie runs one feature-evaluation inner loop over a JSONL
// corpus (see cmd/zombie-datagen) and prints the learning curve and run
// summary. It is the CLI face of the public zombie API.
//
// Usage:
//
//	zombie -corpus wiki.jsonl -task wiki -mode zombie -policy eps-greedy:0.1 -k 32
//	zombie -corpus wiki.jsonl -task wiki -mode scan-random
//	zombie -corpus images.jsonl -task image -mode zombie -early-stop
//	zombie -corpus wiki.jsonl -task wiki -index groups.gob   # reuse a saved index
//	zombie -corpus wiki.jsonl -task wiki -save-index groups.gob
//	zombie -corpus wiki.jsonl -task wiki -session            # full 8-version session
//	zombie -corpus wiki.jsonl -task wiki -recipe rec.json    # declarative feature recipe
//	zombie -corpus big.jsonl -task wiki -stream              # corpus larger than RAM
//	zombie -corpus wiki.jsonl -task wiki -cache-dir .zcache  # warm runs skip extraction
//	zombie -corpus wiki.jsonl -task wiki -shards 4           # sharded workers, same curve
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/buildinfo"
	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/dist"
	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/recipe"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return // -h: the flag set already printed the usage
		}
		fmt.Fprintln(os.Stderr, "zombie:", err)
		os.Exit(1)
	}
}

// run is the whole command over explicit arguments and streams, so the
// tests drive it in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("zombie", flag.ContinueOnError)
	fs.SetOutput(stderr)
	corpusPath := fs.String("corpus", "", "JSONL corpus path (required)")
	stream := fs.Bool("stream", false, "read the corpus lazily from disk instead of loading it")
	sessionMode := fs.Bool("session", false, "replay the standard 8-version engineering session (wiki only)")
	recipePath := fs.String("recipe", "", "run a declarative feature recipe (JSON spec, see internal/recipe) instead of the task's default feature")
	taskName := fs.String("task", "wiki", "task: wiki, songs, or image")
	mode := fs.String("mode", "zombie", "mode: zombie, scan-random, scan-sequential, or oracle")
	policy := fs.String("policy", "eps-greedy:0.1", "bandit policy spec")
	k := fs.Int("k", 32, "number of index groups")
	seed := fs.Int64("seed", 1, "random seed")
	maxInputs := fs.Int("max", 0, "input budget (0 = exhaust the pool)")
	batch := fs.Int("batch", 0, "inputs popped per arm pull (0/1 = classic per-step loop; K>1 amortizes selection, evaluation and RPCs — see DESIGN.md §13)")
	maxTime := fs.Duration("max-time", 0, "simulated-time budget, e.g. 20m (0 = none)")
	earlyStop := fs.Bool("early-stop", false, "enable plateau early stopping")
	version := fs.Int("feature-version", 0, "feature-code version (0 = task default)")
	indexPath := fs.String("index", "", "load a saved index instead of building one")
	saveIndex := fs.String("save-index", "", "save the built index to this path")
	curveEvery := fs.Int("curve-every", 0, "print every Nth curve point (0 = last 10)")
	cacheDir := fs.String("cache-dir", "", "persist the extraction cache in this directory (a second run over the same corpus serves extractions from disk)")
	cacheMemMB := fs.Int("cache-mem-mb", 0, "in-memory extraction-cache budget in MiB (0 = caching off unless -cache-dir is set, then 64)")
	faultSpec := fs.String("faults", "", "inject deterministic faults, e.g. extract:err=0.04,panic=0.04;corpus.read:err=0.03 (chaos testing)")
	faultSeed := fs.Int64("fault-seed", 1, "seed for -faults decisions")
	maxFailures := fs.Float64("max-failures", 0, "failure budget: fraction of processed inputs that may be quarantined before the run degrades (0 = engine default 0.5, 1 = never degrade)")
	shards := fs.Int("shards", 0, "run distributed over this many in-process corpus shards, each arm's next inputs extracted ahead while the loop trains and evaluates (zombie mode; 0 = single-process; the curve is byte-identical either way)")
	traceOut := fs.String("trace-out", "", "record a span trace of the run and write Chrome trace-event JSON to this path (open in about://tracing); also prints trace: cost-attribution lines")
	logFormat := fs.String("log-format", "text", "structured log format: text or json (stderr; stdout stays the diffable curve CSV)")
	versionFlag := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *versionFlag {
		fmt.Fprintln(stdout, buildinfo.String("zombie"))
		return nil
	}
	logger, err := obs.NewLogger(stderr, *logFormat)
	if err != nil {
		return err
	}
	if *corpusPath == "" {
		return fmt.Errorf("-corpus is required")
	}
	var store corpus.Store
	if *stream {
		ds, err := corpus.OpenDiskStore(*corpusPath)
		if err != nil {
			return err
		}
		defer ds.Close()
		store = ds
	} else {
		// Tolerant load: the CLI's corpora come from the wild, so a corrupt
		// line or torn tail is reported and skipped, not fatal. The notice
		// goes to stderr to keep stdout's CSV diffable.
		inputs, skips, err := corpus.ReadJSONLTolerant(*corpusPath)
		if err != nil {
			return err
		}
		for _, s := range skips {
			fmt.Fprintf(stderr, "zombie: corpus line %d skipped: %s\n", s.Line, s.Reason)
		}
		store = corpus.NewMemStore(inputs)
	}
	task, grouper, err := workload.Build(*taskName, store, *version, rng.New(*seed).Split("task"))
	if err != nil {
		return err
	}
	if *sessionMode {
		// The session runs both arms itself — zombie and a random scan, in
		// process — so a flag that picks the mode or the transport would be
		// silently ignored.
		switch {
		case *recipePath != "":
			return fmt.Errorf("-recipe and -session are mutually exclusive")
		case *shards > 0:
			return fmt.Errorf("-shards and -session are mutually exclusive")
		case core.Mode(*mode) != core.ModeZombie && *mode != "":
			return fmt.Errorf("-mode %s and -session are mutually exclusive (the session compares zombie with a random scan)", *mode)
		}
	}
	if *recipePath != "" {
		spec, err := recipe.ParseSpecFile(*recipePath)
		if err != nil {
			return err
		}
		rec, err := spec.Recipe()
		if err != nil {
			return err
		}
		if rec.Feature().NumClasses() != task.Feature.NumClasses() {
			return fmt.Errorf("recipe %s targets %d classes but task %s has %d",
				rec.Name(), rec.Feature().NumClasses(), *taskName, task.Feature.NumClasses())
		}
		// One "recipe:" line per part, filterable like cache:/dist: lines,
		// so scripts diffing curves across recipe edits can strip them.
		for _, p := range rec.Parts() {
			fmt.Fprintf(stdout, "recipe: part=%s kind=%s version=%d fingerprint=%s\n",
				p.Name, p.Kind, max(p.Version, 1), rec.PartFingerprints()[p.Name])
		}
		task = task.WithFeature(rec.Feature())
	}

	cfg := core.Config{
		Mode:           core.Mode(*mode),
		Policy:         bandit.Spec(*policy),
		Seed:           *seed,
		MaxInputs:      *maxInputs,
		MaxSimTime:     *maxTime,
		MaxFailureFrac: *maxFailures,
		BatchSize:      *batch,
	}
	if *earlyStop {
		cfg.EarlyStop = core.EarlyStopConfig{Enabled: true}
	}
	var tracer *otrace.Tracer
	if *traceOut != "" {
		tracer = otrace.New(fmt.Sprintf("cli-%s-%d", *taskName, *seed), 0)
		cfg.Tracer = tracer
	}
	injector, err := fault.Parse(*faultSpec, *faultSeed)
	if err != nil {
		return err
	}
	cfg.Faults = injector
	var fcache *featcache.Cache
	if *cacheDir != "" || *cacheMemMB > 0 {
		memMB := *cacheMemMB
		if memMB <= 0 {
			memMB = 64
		}
		fcache, err = featcache.Open(featcache.Config{MaxBytes: int64(memMB) << 20, Dir: *cacheDir, Faults: injector}, featurepipe.ResultCodec{})
		if err != nil {
			return err
		}
		defer fcache.Close()
		cfg.Cache = fcache
	}
	eng, err := core.New(cfg)
	if err != nil {
		return err
	}

	var groups *index.Groups
	if eng.Config().Mode == core.ModeZombie || *sessionMode {
		if *indexPath != "" {
			groups, err = index.LoadGroups(*indexPath)
		} else {
			start := time.Now()
			groups, err = grouper.Group(store, *k, rng.New(*seed).Split("index"))
			if err == nil {
				fmt.Fprintf(stdout, "built %s index: k=%d in %s\n", groups.Strategy, groups.K(), time.Since(start).Round(time.Millisecond))
			}
		}
		if err != nil {
			return err
		}
		if *saveIndex != "" {
			if err := groups.Save(*saveIndex); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "saved index to %s\n", *saveIndex)
		}
	}

	if *sessionMode {
		if err := runSession(stdout, eng.Config(), task, groups); err != nil {
			return err
		}
		printCacheStats(stdout, fcache)
		if tracer != nil {
			return writeTrace(stdout, *traceOut, tracer)
		}
		return nil
	}

	var res *core.RunResult
	var dres *dist.Result
	if *shards > 0 {
		// The dist workers own the per-step read + extract work (and the
		// extraction cache, when enabled); the engine's policy, learner, and
		// curve run unchanged coordinator-side, which is why the output below
		// is byte-identical to the single-process run.
		tr := dist.NewLocalTransport(store, *shards, fcache, nil)
		defer tr.Close()
		dres, err = dist.Run(context.Background(), eng, tr, dist.Spec{
			RunID:          "cli",
			Corpus:         *corpusPath,
			Task:           *taskName,
			FeatureVersion: *version,
			Seed:           *seed,
			Shards:         *shards,
		}, task, groups)
		if err == nil {
			res = dres.RunResult
		}
	} else {
		res, err = eng.Run(task, groups)
	}
	if err != nil {
		return err
	}

	// The structured record goes to stderr: wall time and the per-phase
	// breakdown that the diffable stdout CSV deliberately omits.
	p := res.Phases
	logger.Info("run finished",
		"task", res.Task, "strategy", res.Strategy, "stop", res.Stop.String(),
		"inputs", res.InputsProcessed, "quality", res.FinalQuality,
		"wall_ms", res.WallTime.Milliseconds(),
		"phase_coverage", fmt.Sprintf("%.2f", p.Coverage(res.WallTime)),
		"holdout_ms", p.Holdout.Milliseconds(), "select_ms", p.Select.Milliseconds(),
		"read_ms", p.Read.Milliseconds(), "extract_ms", p.Extract.Milliseconds(),
		"train_ms", p.Train.Milliseconds(), "eval_ms", p.Eval.Milliseconds(),
		"rpc_ms", p.RPC.Milliseconds(), "cache_lookup_ms", p.CacheLookup.Milliseconds())

	fmt.Fprintln(stdout, res.Summary())
	printQuarantine(stdout, res)
	fmt.Fprintln(stdout, "inputs,quality,sim_seconds")
	points := res.Curve
	if *curveEvery > 0 {
		kept := points[:0:0]
		for i, p := range points {
			if i%*curveEvery == 0 || i == len(points)-1 {
				kept = append(kept, p)
			}
		}
		points = kept
	} else if len(points) > 10 {
		points = points[len(points)-10:]
	}
	for _, p := range points {
		fmt.Fprintf(stdout, "%d,%.4f,%.1f\n", p.Inputs, p.Quality, p.SimTime.Seconds())
	}
	if res.Arms != nil {
		fmt.Fprintln(stdout, "arm,pulls,mean_reward")
		for _, a := range res.Arms {
			fmt.Fprintf(stdout, "%d,%d,%.4f\n", a.Arm, a.Pulls, a.Mean)
		}
	}
	printCacheStats(stdout, fcache)
	printDistStats(stdout, dres)
	if tracer != nil {
		return writeTrace(stdout, *traceOut, tracer)
	}
	return nil
}

// writeTrace dumps the recorded spans as Chrome trace-event JSON and
// prints the cost-attribution summary on "trace:"-prefixed stdout lines —
// the same filterable-prefix convention as the cache: and dist: lines,
// since tracing must never perturb the diffable curve output.
func writeTrace(stdout io.Writer, path string, tracer *otrace.Tracer) error {
	spans, dropped := tracer.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := otrace.WriteChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	cost := otrace.BuildCost(spans, dropped)
	fmt.Fprintf(stdout, "trace: %d spans (%d dropped), wall %.3fs, cpu %.3fs, chrome trace written to %s\n",
		len(spans), dropped, cost.WallSeconds, cost.CPUSeconds, path)
	for _, c := range cost.Cells {
		shard := "-"
		if c.Shard >= 0 {
			shard = strconv.Itoa(c.Shard)
		}
		part := c.Part
		if part == "" {
			part = "-"
		}
		fmt.Fprintf(stdout, "trace: phase=%s shard=%s part=%s wall=%.3fs cpu=%.3fs\n",
			c.Phase, shard, part, c.WallSeconds, c.CPUSeconds)
	}
	return nil
}

// printDistStats reports a sharded run's per-worker summary on
// "dist:"-prefixed lines — the same filterable-prefix convention as the
// cache: line, because the lines legitimately differ across shard counts
// while the curve and summary above must not.
func printDistStats(stdout io.Writer, r *dist.Result) {
	if r == nil {
		return
	}
	for _, w := range r.Workers {
		fmt.Fprintf(stdout, "dist: transport=%s worker=%d inputs=%d holdout=%d steps=%d cache_hits=%d cache_misses=%d failed_calls=%d retried_calls=%d readahead_hits=%d readahead_misses=%d readahead_wasted=%d\n",
			r.Transport, w.Shard, w.Inputs, w.Holdout, w.Steps, w.CacheHits, w.CacheMisses, w.FailedCalls, w.RetriedCalls,
			w.ReadAheadHits, w.ReadAheadMisses, w.ReadAheadWasted)
	}
}

// printQuarantine lists the run's quarantined inputs, one per
// "quarantine:"-prefixed line in the deterministic order they were hit —
// same filterable-prefix convention as the cache: line, so chaos scripts
// can both assert on and strip them.
func printQuarantine(stdout io.Writer, res *core.RunResult) {
	for _, q := range res.Quarantined {
		fmt.Fprintf(stdout, "quarantine: input=%s site=%s step=%d reason=%q\n",
			q.InputID, q.Site, q.Step, q.Reason)
	}
}

// printCacheStats reports the extraction-cache traffic on its own
// "cache:"-prefixed line, kept out of the curve/arm CSV so scripts
// comparing run output across cache states can filter it out.
func printCacheStats(stdout io.Writer, c *featcache.Cache) {
	if c == nil {
		return
	}
	st := c.Stats()
	fmt.Fprintf(stdout, "cache: hits=%d misses=%d disk_hits=%d entries=%d bytes=%d evictions=%d disk_errors=%d demoted=%t\n",
		st.Hits, st.Misses, st.DiskHits, st.Entries, st.Bytes, st.Evictions,
		st.DiskErrors, st.DiskDemoted)
}

// runSession replays the standard wiki engineering session under both the
// scan baseline and zombie, printing the engineer-wait comparison. Each
// arm is a recipe session with warm-starting off, so every version runs
// as a cold run would: zombie under the engine's configuration, the scan
// as a full random pass with no early stop.
func runSession(stdout io.Writer, cfg core.Config, task *featurepipe.Task, groups *index.Groups) error {
	versions := recipe.WikiVersions()
	if task.Feature.NumClasses() != versions[0].Feature().NumClasses() {
		return fmt.Errorf("-session supports the wiki task only")
	}
	var arms [2][]*recipe.Version
	for i, engCfg := range []core.Config{recipe.ScanTwin(cfg), cfg} {
		var err error
		if arms[i], err = recipe.Replay("session", task, groups, recipe.Config{Engine: engCfg}, versions...); err != nil {
			return err
		}
	}
	scan, zom := arms[0], arms[1]
	fmt.Fprintf(stdout, "%-10s %12s %8s %14s %8s %s\n", "version", "scan-inputs", "scan-q", "zombie-inputs", "zombie-q", "stop")
	for i := range scan {
		s, z := scan[i].Run, zom[i].Run
		fmt.Fprintf(stdout, "%-10s %12d %8.3f %14d %8.3f %s\n",
			scan[i].Recipe.Name(), s.InputsProcessed, s.FinalQuality,
			z.InputsProcessed, z.FinalQuality, z.Stop)
	}
	scanWait := recipe.EngineerWait(0, scan).Total()
	zomWait := recipe.EngineerWait(groups.BuildTime, zom).Total()
	fmt.Fprintf(stdout, "scan total %s | zombie total %s | speedup %.2fx\n",
		scanWait.Round(time.Second), zomWait.Round(time.Second), float64(scanWait)/float64(zomWait))
	return nil
}
