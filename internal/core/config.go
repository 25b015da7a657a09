// Package core implements the Zombie engine — the paper's primary
// contribution. Given a Task (corpus + feature code + learner + metric)
// and a set of index Groups built offline, the engine runs the online
// inner loop: a multi-armed bandit repeatedly picks an index group, the
// group's next unprocessed input is run through the feature code, the
// resulting example trains the incremental learner, and the observed
// reward (usefulness or holdout-quality movement) updates the bandit.
// A plateau detector over the learning curve stops the run early once the
// quality estimate has converged.
//
// The package also implements the baselines the paper compares against —
// sequential scan, shuffled random scan, and the ground-truth oracle —
// over exactly the same loop, so measured differences isolate input
// selection.
package core

import (
	"fmt"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/fault"
	"zombie/internal/featcache"
	"zombie/internal/obs"
	"zombie/internal/otrace"
	"zombie/internal/trace"
)

// RewardKind selects how the engine converts a step's outcome into a
// bandit reward.
type RewardKind int

const (
	// RewardUsefulness pays 1 when the feature code marks the input
	// useful (paper default: cheap, exact attribution).
	RewardUsefulness RewardKind = iota
	// RewardQualityDelta pays the improvement of a small holdout
	// subsample's quality caused by training on the example, scaled by
	// rewardScale and clamped to [0,1].
	RewardQualityDelta
	// RewardHybrid averages the two.
	RewardHybrid
)

// String returns the reward's table label.
func (k RewardKind) String() string {
	switch k {
	case RewardUsefulness:
		return "usefulness"
	case RewardQualityDelta:
		return "quality-delta"
	case RewardHybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("RewardKind(%d)", int(k))
	}
}

// EarlyStopConfig tunes plateau detection over the learning curve. The
// detector sees one quality sample per evaluation (every Config.EvalEvery
// inputs), so Window and Patience are measured in evaluations.
type EarlyStopConfig struct {
	// Enabled turns early stopping on.
	Enabled bool
	// Window is how many recent quality samples the slope is fitted over
	// (default 8).
	Window int
	// SlopeThreshold is the absolute per-sample slope below which the
	// curve counts as flat (default 0.002).
	SlopeThreshold float64
	// Patience is how many consecutive flat checks are required
	// (default 2).
	Patience int
	// MinInputs prevents stopping before this many inputs regardless of
	// slope (default 200).
	MinInputs int
}

func (c EarlyStopConfig) withDefaults() EarlyStopConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.SlopeThreshold <= 0 {
		c.SlopeThreshold = 0.002
	}
	if c.Patience <= 0 {
		c.Patience = 2
	}
	if c.MinInputs <= 0 {
		c.MinInputs = 200
	}
	return c
}

// Mode selects the input source the loop draws from: the paper's bandit
// over index groups, or one of the baselines it is measured against. Every
// mode runs the same loop, so measured differences isolate input
// selection.
type Mode string

const (
	// ModeZombie selects inputs through the index groups under the
	// configured bandit policy (the default).
	ModeZombie Mode = "zombie"
	// ModeScanRandom processes the pool in seeded shuffled order — the
	// paper's primary baseline (uniform sampling without replacement).
	ModeScanRandom Mode = "scan-random"
	// ModeScanSequential processes the pool in ascending store order.
	ModeScanSequential Mode = "scan-sequential"
	// ModeOracle processes ground-truth useful inputs first: the skyline
	// no realizable selector can beat.
	ModeOracle Mode = "oracle"
)

// Config parameterizes an engine. The zero value plus a Policy is usable;
// New fills in defaults.
type Config struct {
	// Mode selects the input source (default ModeZombie). Scans and the
	// oracle ignore the groups a run is handed, and with them Policy,
	// PolicyStats and WarmStart.
	Mode Mode
	// Policy names the bandit policy (see bandit.Spec). Default
	// "eps-greedy:0.1", the paper's workhorse.
	Policy bandit.Spec
	// PolicyStats configures per-arm reward aging (default cumulative).
	// sw-ucb and d-ucb forget by their own rule and ignore it.
	PolicyStats bandit.StatsConfig
	// Reward selects the reward function.
	Reward RewardKind
	// RewardSubsample is the holdout subsample size used by the
	// quality-delta reward (default 50; values <= 0 also fall back to the
	// default, and a subsample at least as large as the holdout reuses the
	// full holdout). The floor exists because an empty reward holdout
	// would silently zero every quality-delta reward.
	RewardSubsample int
	// EvalEvery evaluates the full holdout every N processed inputs
	// (default 25). Smaller is a finer learning curve but more eval cost.
	// Each evaluation scores the run's one model, which has fitted every
	// example collected so far exactly once (see learner.Model for why
	// the order they arrived in does not matter).
	EvalEvery int
	// BatchSize is how many inputs the loop pops per arm pull (default 1;
	// values <= 0 also mean 1, like RewardSubsample's floor). Every pull is
	// one batch through one code path: the selected arm yields up to K
	// consecutive inputs which are read, extracted (one Executor.ExecuteBatch
	// call) and trained together; the holdout is evaluated once per batch
	// boundary (whenever the processed-input count crosses a multiple of
	// EvalEvery), so at K>1 the curve's points land on batch boundaries
	// instead of exact EvalEvery multiples. Delta-based rewards bracket the
	// whole batch with one before/after measurement — the amortization that
	// makes large K cheap — and every input in the batch is credited to the
	// arm individually. K=1 is a batch of one: the classic per-step bandit,
	// byte-identical to every release before batching existed. Runs are
	// deterministic for a given (seed, K) at any shard count, transport,
	// parallelism or cache state; see DESIGN.md §13.
	BatchSize int
	// EarlyStop configures plateau detection.
	EarlyStop EarlyStopConfig
	// MaxInputs caps processed inputs; 0 means run to exhaustion (or
	// early stop).
	MaxInputs int
	// MaxSimTime caps the simulated processing clock — the engineer's
	// "give me the best estimate you can in 20 minutes" budget; 0 means
	// no time cap.
	MaxSimTime time.Duration
	// Seed drives every random choice the engine makes.
	Seed int64
	// WarmStart, when non-empty and WarmStartDecay > 0, seeds the freshly
	// built bandit policy from a previous run's final ArmSnapshots before
	// the first selection — the session workspace's bridge between two
	// versions of a feature recipe over the same index groups. Each
	// snapshot arm receives round(WarmStartDecay × Pulls) synthetic
	// Update(arm, Mean) calls (see bandit.Seed); seeding consumes no
	// randomness, so a warm-started run is a pure function of
	// (Config, snapshots). Snapshot arms must index into the run's groups.
	WarmStart []bandit.ArmSnapshot
	// WarmStartDecay scales trust in WarmStart, in [0,1]: 1 replays every
	// historical pull, 0 disables seeding entirely. The decay-0 identity
	// contract is load-bearing for sessions: with WarmStartDecay == 0 the
	// run is byte-identical to one with no WarmStart at all.
	WarmStartDecay float64
	// Cache, when non-nil, memoizes feature extraction through the
	// content-addressed extraction cache: every Extract during the run
	// (holdout builds included) is served from the cache when the
	// (feature-fingerprint, input) pair was computed before — by this run,
	// a concurrent run, or a previous process when the cache is
	// disk-backed. Extraction is deterministic and side-effect free by the
	// FeatureFunc contract and the simulated cost clock is charged either
	// way, so results are byte-identical with the cache on, off, cold or
	// warm; only WallTime and the RunResult cache counters change.
	Cache *featcache.Cache
	// MaxFailureFrac is the run's failure budget: the fraction of
	// processed inputs that may be quarantined (feature-code panics,
	// corpus read errors) before the run stops accepting more damage and
	// degrades to Stop = StopFailed with its partial results. Quarantined
	// inputs below the budget cost one record each and the run continues —
	// a messy corpus must not kill a run the serving layer promised to a
	// client. 0 means the default, 0.5, and a negative value is an error;
	// 1 disables the budget (quarantine everything, never degrade). The
	// budget is only evaluated after a 20-step grace period so one early
	// failure cannot trip a fraction computed over a handful of steps.
	MaxFailureFrac float64
	// Faults, when non-nil, injects seeded deterministic failures at the
	// engine's fault sites (fault.SiteExtract keyed by input ID,
	// fault.SiteCorpusRead keyed by store index). Production runs leave it
	// nil; chaos tests (cmd/zombie's included) use it to prove the quarantine
	// and budget machinery end to end. Because decisions are pure hashes
	// of (seed, site, id), two runs with the same engine seed and fault
	// seed are byte-identical, quarantine list included.
	Faults *fault.Injector
	// Progress, when non-nil, is invoked synchronously from the run
	// goroutine each time a learning-curve point is appended (including
	// the step-0 floor and the final point). Long-lived consumers — the
	// serving layer bridges this to SSE — must not block: the loop stalls
	// for as long as the callback runs.
	Progress func(CurvePoint)
	// Event, when non-nil, is invoked synchronously from the run goroutine
	// for every step, in step order: it is the engine's only step-event
	// channel, and the result keeps no copy. The serving layer bridges it
	// into each run's bounded trace ring and SSE trace frames. Like
	// Progress, the callback must not block.
	Event func(trace.Event)
	// Obs, when non-nil, is the process-wide telemetry registry the run
	// observes into: per-phase latency histograms (zombie_phase_seconds)
	// and the whole-run histogram (zombie_run_seconds). Metric declaration
	// is idempotent, so every run of a process shares the same series.
	// Timing is observational only — RunResult.Phases is filled either way
	// and curves are byte-identical with Obs set or nil.
	Obs *obs.Registry
	// Tracer, when non-nil, records the run's span tree: a root "run"
	// span, a "holdout" span, one "batch" span per arm pull bracketing the
	// six phases with per-phase wall attrs, "eval" spans for the
	// out-of-batch holdout evaluations, and one "part" span per recipe
	// part carrying the per-part cache/compute cost (cached runs only).
	// The loop stamps each batch's span into the ctx it hands the
	// Executor, so the distributed coordinator parents its rpc spans —
	// and the worker spans it stitches back — under the right batch.
	// Tracing is observational by construction: a traced run's curve,
	// arms and quarantine list are byte-identical to an untraced one
	// (test-asserted), and nil disables it with zero cost.
	Tracer *otrace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = ModeZombie
	}
	if c.Policy == "" {
		c.Policy = "eps-greedy:0.1"
	}
	if c.RewardSubsample <= 0 {
		c.RewardSubsample = 50
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 25
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.MaxFailureFrac == 0 {
		c.MaxFailureFrac = 0.5
	}
	c.EarlyStop = c.EarlyStop.withDefaults()
	return c
}

// Engine runs feature-evaluation inner loops. An Engine is immutable and
// safe to reuse across runs; each Run derives its own random substreams
// from Config.Seed, so repeated identical calls produce identical results.
type Engine struct {
	cfg Config
}

// New validates the configuration and returns an engine.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	switch cfg.Mode {
	case ModeZombie, ModeScanRandom, ModeScanSequential, ModeOracle:
	default:
		return nil, fmt.Errorf("core: unknown mode %q (want %s, %s, %s or %s)",
			cfg.Mode, ModeZombie, ModeScanRandom, ModeScanSequential, ModeOracle)
	}
	if cfg.MaxInputs < 0 {
		return nil, fmt.Errorf("core: MaxInputs must be >= 0, got %d", cfg.MaxInputs)
	}
	if cfg.MaxSimTime < 0 {
		return nil, fmt.Errorf("core: MaxSimTime must be >= 0, got %v", cfg.MaxSimTime)
	}
	if cfg.MaxFailureFrac != cfg.MaxFailureFrac || cfg.MaxFailureFrac <= 0 || cfg.MaxFailureFrac > 1 {
		return nil, fmt.Errorf("core: MaxFailureFrac must be in (0,1], got %v", cfg.MaxFailureFrac)
	}
	if cfg.WarmStartDecay != cfg.WarmStartDecay || cfg.WarmStartDecay < 0 || cfg.WarmStartDecay > 1 {
		return nil, fmt.Errorf("core: WarmStartDecay must be in [0,1], got %v", cfg.WarmStartDecay)
	}
	// Validate the policy spec eagerly with a throwaway build.
	if _, err := cfg.Policy.Build(2, cfg.PolicyStats, dummyRNG()); err != nil {
		return nil, err
	}
	switch cfg.Reward {
	case RewardUsefulness, RewardQualityDelta, RewardHybrid:
	default:
		return nil, fmt.Errorf("core: unknown RewardKind %d", int(cfg.Reward))
	}
	return &Engine{cfg: cfg}, nil
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }
