package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/rng"
)

// config is one pass over one workload: what the driver's contract asks of
// a single invocation.
type config struct {
	workload string
	// seed is the pass seed: it shuffles the order in which the pass walks
	// its workload's cycle of run specs.
	seed int64
	// dataSeed derives the data and the script every pass shares: corpus,
	// pool/holdout split, index, and the engine seeds of the run specs.
	dataSeed int64
	seconds  float64
	trace    bool
	// scale shrinks the corpora for smoke tests; reported runs use 1.
	scale float64
	// workDir receives every file the pass writes; it is removed at the end.
	workDir string
	// serveBin is the zombie-serve binary the service workloads start.
	serveBin string
	// traceOut, when set, receives the traced pass's Chrome trace.
	traceOut string
}

// metricValue is one reported number. N is the sample count behind it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one pass reports.
type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Seed      int64                  `json:"seed"`
	DataSeed  int64                  `json:"data_seed"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	CurveHash string                 `json:"curve_hash"`
	WindowS   float64                `json:"window_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples lists every measured op, so a reader can recompute any
	// statistic; it is part of the detail line, not of the contract line.
	Samples []opSample `json:"samples"`
}

// opSample is one measured op in the detail line.
type opSample struct {
	Spec    int     `json:"spec"`
	Version int     `json:"version"`
	WallS   float64 `json:"wall_s"`
	Inputs  int     `json:"inputs"`
	Quality float64 `json:"quality"`
	Traced  bool    `json:"traced,omitempty"`
}

// env is the state one pass threads through a workload: its config, the
// result under construction, the span recorder (nil when untraced) and the
// child processes it must reap.
type env struct {
	cfg config
	res *result
	// tr records spans on the traced pass; nil on the untraced one.
	tr *tracer
	// root is the pass's "workload" span; setup, op and rungs hang off it.
	root     spanID
	children []*child
	// seen maps a run spec to the curve hash its first execution produced:
	// replaying a spec must reproduce it.
	seen map[string]string
}

func newEnv(cfg config) *env {
	e := &env{
		cfg:  cfg,
		seen: map[string]string{},
		res: &result{
			Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, DataSeed: cfg.dataSeed,
			Metrics: map[string]metricValue{},
		},
	}
	if cfg.trace {
		e.tr = newTracer()
		e.root = e.tr.start(0, 0, 0, "workload")
	}
	return e
}

// run executes one pass of the workload and completes its result.
func (e *env) run(w *workloadDef) error {
	if err := w.run(e); err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	e.combineCurves()
	e.tr.end(e.root)
	return nil
}

// set records a metric; the catalogue supplies the unit. Setting a name the
// catalogue does not declare is a bug in the benchmark.
func (e *env) set(name string, value float64, n int) {
	def := findMetric(name)
	if def == nil {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	e.res.Metrics[name] = metricValue{Value: value, Unit: def.Unit, N: n}
}

// fail counts one failed operation and keeps its reason.
func (e *env) fail(format string, args ...any) {
	e.res.Failed++
	if len(e.res.Problems) < 20 {
		e.res.Problems = append(e.res.Problems, fmt.Sprintf(format, args...))
	}
}

// checkReplay enforces determinism: the first execution of a spec records
// its curve hash, every later one must reproduce it.
func (e *env) checkReplay(spec, hash string) {
	if prev, ok := e.seen[spec]; ok {
		if prev != hash {
			e.fail("replay of %s gave curve %s, first run gave %s", spec, hash[:12], prev[:12])
		}
		return
	}
	e.seen[spec] = hash
}

// combineCurves folds every spec's curve hash, in spec-name order, into the
// workload's combined hash. A pass runs every spec of its cycle whatever
// its seed, so the combined hash identifies the program's behaviour on the
// workload: parent and child commits can be diffed by eye.
func (e *env) combineCurves() {
	specs := make([]string, 0, len(e.seen))
	for spec := range e.seen {
		specs = append(specs, spec)
	}
	sort.Strings(specs)
	h := sha256.New()
	for _, spec := range specs {
		fmt.Fprintf(h, "%s=%s\n", spec, e.seen[spec])
	}
	e.res.CurveHash = hex.EncodeToString(h.Sum(nil)[:8])
}

// order is the pass seed's permutation of a cycle of n specs. name keeps
// the permutations of one pass (one per client) independent.
func (e *env) order(n int, name string) []int {
	return rng.New(e.cfg.seed).Split("order:" + name).Perm(n)
}

// close reaps every child still running and removes the work directory.
func (e *env) close() {
	for _, c := range e.children {
		c.stop()
	}
	if e.cfg.workDir != "" {
		os.RemoveAll(e.cfg.workDir)
	}
}

// corpusSize is the paper-scale 20 000 inputs, shrunk only by -scale.
func (e *env) corpusSize() int { return max(400, int(20000*e.cfg.scale)) }

// iters scales a rung's repetition count with -scale (which is at most 1),
// so smoke tests stay fast while reported runs keep the full count.
func (e *env) iters(full int) int { return max(3, int(float64(full)*e.cfg.scale)) }

// curvePoint is the transport-neutral form of one learning-curve sample:
// what an in-process RunResult and the service's curve JSON both reduce to.
type curvePoint struct {
	Inputs     int     `json:"inputs"`
	Quality    float64 `json:"quality"`
	SimSeconds float64 `json:"sim_seconds"`
}

// hashCurve is the identity two executions of one spec must share. Float
// bits are hashed exactly: the repository's contract is byte-identical
// curves, not close ones.
func hashCurve(points []curvePoint) string {
	h := sha256.New()
	var buf [24]byte
	for _, p := range points {
		binary.LittleEndian.PutUint64(buf[0:], uint64(p.Inputs))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Quality))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(p.SimSeconds))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corpusSetup is a generated corpus after its round trip through JSONL,
// with the time each step took.
type corpusSetup struct {
	store  *corpus.MemStore
	path   string
	bytes  int64
	genS   float64
	writeS float64
	readS  float64
}

// buildCorpus generates the corpus from the data seed, writes it as JSONL
// and — for in-process workloads — reads it back, so every workload's
// program under test receives the same artifact: a JSONL file of generated
// inputs.
func (e *env) buildCorpus(kind string, parent spanID, readBack bool) (*corpusSetup, error) {
	var ins []*corpus.Input
	var err error
	sp := e.tr.start(parent, 0, 0, "corpus.generate")
	t := time.Now()
	switch kind {
	case "wiki":
		gen := corpus.DefaultWikiConfig()
		gen.N = e.corpusSize()
		ins, err = corpus.GenerateWiki(gen, rng.New(e.cfg.dataSeed).Split("wiki-corpus"))
	case "songs":
		gen := corpus.DefaultSongConfig()
		gen.N = e.corpusSize()
		ins, err = corpus.GenerateSongs(gen, rng.New(e.cfg.dataSeed).Split("song-corpus"))
	default:
		err = fmt.Errorf("unknown corpus kind %q", kind)
	}
	cs := &corpusSetup{genS: time.Since(t).Seconds()}
	e.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("generate %s corpus: %w", kind, err)
	}

	cs.path = filepath.Join(e.cfg.workDir, kind+".jsonl")
	sp = e.tr.start(parent, 0, 0, "corpus.write_jsonl")
	t = time.Now()
	err = corpus.WriteJSONL(cs.path, ins)
	cs.writeS = time.Since(t).Seconds()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if fi, err := os.Stat(cs.path); err == nil {
		cs.bytes = fi.Size()
	}
	if !readBack {
		return cs, nil
	}

	sp = e.tr.start(parent, 0, 0, "corpus.read_jsonl")
	t = time.Now()
	ins, err = corpus.ReadJSONL(cs.path)
	cs.readS = time.Since(t).Seconds()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	cs.store = corpus.NewMemStore(ins)
	return cs, nil
}

// report sets the corpus rungs: they are the set-up calls themselves.
func (cs *corpusSetup) report(e *env) {
	e.set("corpus.generate_s", cs.genS, 1)
	e.set("corpus.write_jsonl_s", cs.writeS, 1)
	e.set("corpus.read_jsonl_s", cs.readS, 1)
	e.set("corpus.bytes", float64(cs.bytes), 1)
}

// setupRepeats is how many times the untraced pass sets up: setup_s is the
// median, so one slow index build does not decide it. The traced pass sets
// up once; its per-layer numbers carry no bound.
func (e *env) setupRepeats() int {
	if e.cfg.trace {
		return 1
	}
	return 3
}

// repeatSetup runs setup the configured number of times, tearing each
// earlier state down, and reports the median wall as setup_s. It returns
// the last state, which the measured window then uses. Each set-up starts
// from a collected heap, so the garbage of one does not count into the
// peak RSS of the next.
func repeatSetup[S any](e *env, setup func(parent spanID) (S, error), teardown func(S)) (S, error) {
	var walls []float64
	var st S
	for i := 0; i < e.setupRepeats(); i++ {
		if i > 0 {
			teardown(st)
			var zero S
			st = zero
		}
		runtime.GC()
		sp := e.tr.start(e.root, 0, 0, "setup")
		t := time.Now()
		s, err := setup(sp)
		walls = append(walls, time.Since(t).Seconds())
		e.tr.end(sp)
		if err != nil {
			var zero S
			return zero, fmt.Errorf("set-up: %w", err)
		}
		st = s
	}
	runtime.GC()
	e.set("setup_s", median(walls), len(walls))
	return st, nil
}
