package experiments

import (
	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// Config scales and seeds an experiment run. Scale 1.0 is the full
// 20k-input corpora; the repo-root benchmarks use ~0.1.
type Config struct {
	Scale float64
	Seed  int64
	// Parallel bounds each level of fan-out, not the total; <= 0 and 1
	// both run sequentially. The levels nest: RunAll runs up to Parallel
	// experiments at once, an experiment up to Parallel of its rows, and a
	// row up to Parallel of its trials, strategies or variants. Of any two
	// nested levels one is at most 3 wide, so an experiment has at most
	// 3 × Parallel engine runs in flight and RunAll 3 × Parallel². Every
	// run derives its randomness from explicit seeds and results merge in
	// submission order, so the emitted tables and series are
	// byte-identical for any value — the knob only changes wall-clock
	// time.
	Parallel int
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Seed == 0 {
		c.Seed = 20160516 // the paper's publication date
	}
	if c.Parallel <= 0 {
		c.Parallel = 1
	}
	return c
}

func (c Config) n(full int) int {
	n := int(float64(full) * c.Scale)
	if n < 400 {
		n = 400
	}
	return n
}

// Workload is one of internal/workload's tasks over a generated corpus,
// plus what only the experiments decide: the group count, the quality
// target and any reward or policy default.
type Workload struct {
	Task  *featurepipe.Task
	Store *corpus.MemStore
	// Grouper builds the task's informative index.
	Grouper index.Grouper
	// DefaultK is the index group count the headline experiments use.
	DefaultK int
	// QualityTarget is the fraction of full-scan quality the
	// time-to-quality experiments aim for.
	QualityTarget float64
	// Reward is the task's default reward function.
	Reward core.RewardKind
	// Policy overrides the default bandit policy for this task ("" keeps
	// the experiment's choice).
	Policy bandit.Spec
}

// Groups builds the workload's default index.
func (w *Workload) Groups(k int, seed int64) (*index.Groups, error) {
	return w.Grouper.Group(w.Store, k, rng.New(seed))
}

// newWorkload wraps workload.Build's definition of the named task over
// the generated inputs. stream names the task's split substream of
// cfg.Seed.
func newWorkload(cfg Config, name, stream string, ins []*corpus.Input, extra Workload) (*Workload, error) {
	store := corpus.NewMemStore(ins)
	task, grouper, err := workload.Build(name, store, 0, rng.New(cfg.Seed).Split(stream))
	if err != nil {
		return nil, err
	}
	extra.Task, extra.Store, extra.Grouper = task, store, grouper
	extra.DefaultK, extra.QualityTarget = 32, 0.95
	return &extra, nil
}

// WikiWorkload is the extraction task: rare relevant pages, hashed-text
// k-means index, F1 of the positive class. Inputs cost 150ms simulated
// (parse + extract over a full page), the cost that makes the paper's
// full-corpus runs hour-scale.
func WikiWorkload(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	gen := corpus.DefaultWikiConfig()
	gen.N = cfg.n(20000)
	ins, err := corpus.GenerateWiki(gen, rng.New(cfg.Seed).Split("wiki-corpus"))
	if err != nil {
		return nil, err
	}
	return newWorkload(cfg, "wiki", "wiki-task", ins, Workload{})
}

// SongWorkload is the MSD-style genre-classification task: every input
// produces an example (dense), quality is macro-F1 over Zipf-skewed
// genres, and the rare genres are both scarcer and fuzzier (higher
// within-class variance), so they need disproportionately many examples.
// Useful inputs are the rare-genre songs. Dense tasks are where the
// paper's speedups are smallest: the default policy keeps exploration
// high (decaying ε) because macro-F1 punishes starving any class.
func SongWorkload(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	gen := corpus.DefaultSongConfig()
	gen.N = cfg.n(20000)
	ins, err := corpus.GenerateSongs(gen, rng.New(cfg.Seed).Split("song-corpus"))
	if err != nil {
		return nil, err
	}
	return newWorkload(cfg, "songs", "song-task", ins,
		Workload{Reward: core.RewardUsefulness, Policy: "eps-decay:0.9:0.002"})
}

// ImageWorkload is the needle-in-a-haystack detection task: ~2.5%
// positives concentrated in a few visual clusters, numeric k-means index,
// F1 of the positive class. This is where the paper reports its largest
// (up to 8x) speedups. Vision feature code is the most expensive: 400ms
// simulated per input.
func ImageWorkload(cfg Config) (*Workload, error) {
	cfg = cfg.withDefaults()
	gen := corpus.DefaultImageConfig()
	gen.N = cfg.n(20000)
	ins, err := corpus.GenerateImages(gen, rng.New(cfg.Seed).Split("image-corpus"))
	if err != nil {
		return nil, err
	}
	return newWorkload(cfg, "image", "image-task", ins, Workload{})
}
