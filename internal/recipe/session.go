package recipe

import (
	"context"
	"fmt"
	"time"

	"zombie/internal/core"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
)

// Config parameterizes a session workspace.
type Config struct {
	// Engine is the template engine configuration each version runs with.
	// Its WarmStart fields are managed by the session (overwritten per
	// version); set Cache to share extractions across versions — that is
	// where the "edit one part, pay for one part" economics come from.
	Engine core.Config
	// Decay is the warm-start decay applied when a version runs after a
	// previous one, in [0,1]. 0 disables warm-starting entirely: every
	// version runs byte-identical to a cold run.
	Decay float64
}

// WarmStartStats records what seeding a version actually did.
type WarmStartStats struct {
	// Applied reports whether the version's policy was seeded from the
	// previous version's arm statistics.
	Applied bool `json:"applied"`
	// Decay is the decay the seeding used.
	Decay float64 `json:"decay"`
	// SeededPulls is the number of synthetic pulls replayed.
	SeededPulls int64 `json:"seeded_pulls"`
}

// Version is one submitted recipe iteration and its run.
type Version struct {
	// Index is the 1-based version number within the session.
	Index int
	// Recipe is the compiled recipe this version ran.
	Recipe *Recipe
	// Diff describes how the recipe changed from the previous version
	// (everything Added for v1).
	Diff Diff
	// Run is the engine result: curve, arms, cache counters, stop reason.
	Run *core.RunResult
	// WarmStart records the seeding applied before the run.
	WarmStart WarmStartStats
}

// Session is the iterative feature-engineering workspace: an engineer
// submits recipe versions one after another against a fixed task and
// index, and the session carries knowledge forward between them — cached
// part extractions through Config.Engine.Cache, and bandit arm statistics
// through warm-start seeding. A Session is not safe for concurrent use;
// versions are sequential by nature.
type Session struct {
	name     string
	cfg      Config
	task     *featurepipe.Task
	groups   *index.Groups
	versions []*Version
}

// NewSession validates the configuration and opens a workspace over the
// task and groups.
func NewSession(name string, task *featurepipe.Task, groups *index.Groups, cfg Config) (*Session, error) {
	if name == "" {
		return nil, fmt.Errorf("recipe: session needs a name")
	}
	if task == nil || groups == nil {
		return nil, fmt.Errorf("recipe: session %s needs a task and groups", name)
	}
	if cfg.Decay != cfg.Decay || cfg.Decay < 0 || cfg.Decay > 1 {
		return nil, fmt.Errorf("recipe: session %s: decay must be in [0,1], got %v", name, cfg.Decay)
	}
	// Validate the engine template eagerly so the first Submit cannot fail
	// on configuration the caller handed over at open time.
	if _, err := core.New(cfg.Engine); err != nil {
		return nil, err
	}
	return &Session{name: name, cfg: cfg, task: task, groups: groups}, nil
}

// Submit runs one recipe version: it diffs the recipe against the
// previous version, warm-starts the bandit from the previous version's
// arm statistics (Config.Decay > 0), runs the engine, and records the
// version — unless the run was cancelled or tripped the failure budget:
// partial arms and a recipe that never reached a verdict are nothing to
// build on, so the next version starts from the latest one that did.
// Unchanged parts are served by the extraction cache when the engine
// config carries one — the engine's cache counters in the returned
// version's Run show the reuse.
func (s *Session) Submit(ctx context.Context, r *Recipe) (*Version, error) {
	if r == nil {
		return nil, fmt.Errorf("recipe: session %s: Submit requires a recipe", s.name)
	}
	if got, want := r.Feature().NumClasses(), s.task.Feature.NumClasses(); got != want {
		return nil, fmt.Errorf("recipe: session %s: recipe %s has %d classes, task %s expects %d",
			s.name, r.Name(), got, s.task.Name, want)
	}
	cfg := s.cfg.Engine
	cfg.WarmStart, cfg.WarmStartDecay = nil, 0
	ws := WarmStartStats{Decay: s.cfg.Decay}
	if prev := s.last(); prev != nil && s.cfg.Decay > 0 && prev.Run != nil && len(prev.Run.Arms) > 0 {
		cfg.WarmStart = prev.Run.Arms
		cfg.WarmStartDecay = s.cfg.Decay
		ws.Applied = true
	}
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	res, err := eng.RunContext(ctx, s.task.WithFeature(r.Feature()), s.groups)
	if err != nil {
		return nil, fmt.Errorf("recipe: session %s: version %d: %w", s.name, len(s.versions)+1, err)
	}
	ws.SeededPulls = res.WarmStartPulls
	v := &Version{
		Index:     len(s.versions) + 1,
		Recipe:    r,
		Diff:      r.DiffFrom(s.prevRecipe()),
		Run:       res,
		WarmStart: ws,
	}
	if res.Stop != core.StopCancelled && res.Stop != core.StopFailed {
		s.versions = append(s.versions, v)
	}
	return v, nil
}

// Restore appends a version that ran before this workspace existed — a
// restarted server recovering persisted session history. The version is
// recorded exactly as if Submit had just run it, so the next Submit
// diffs against its recipe and warm-starts from its arm snapshots, but
// nothing executes: run is the persisted result, trusted as-is. Restore
// versions before the first Submit; interleaving them afterwards would
// rewrite history the live versions already diffed against.
func (s *Session) Restore(r *Recipe, run *core.RunResult, ws WarmStartStats) (*Version, error) {
	if r == nil || run == nil {
		return nil, fmt.Errorf("recipe: session %s: Restore requires a recipe and a result", s.name)
	}
	v := &Version{
		Index:     len(s.versions) + 1,
		Recipe:    r,
		Diff:      r.DiffFrom(s.prevRecipe()),
		Run:       run,
		WarmStart: ws,
	}
	s.versions = append(s.versions, v)
	return v, nil
}

func (s *Session) last() *Version {
	if len(s.versions) == 0 {
		return nil
	}
	return s.versions[len(s.versions)-1]
}

func (s *Session) prevRecipe() *Recipe {
	if v := s.last(); v != nil {
		return v.Recipe
	}
	return nil
}

// Replay submits the recipes in order to a fresh session and returns
// their versions. At cfg.Decay 0 warm-starting is off, so every version
// runs exactly as a cold run would.
func Replay(name string, task *featurepipe.Task, groups *index.Groups, cfg Config, recipes ...*Recipe) ([]*Version, error) {
	s, err := NewSession(name, task, groups, cfg)
	if err != nil {
		return nil, err
	}
	versions := make([]*Version, len(recipes))
	for i, r := range recipes {
		if versions[i], err = s.Submit(context.Background(), r); err != nil {
			return nil, err
		}
	}
	return versions, nil
}

// ScanTwin is the status-quo engineer's engine beside eng: the same
// configuration as a random scan of the whole pool, early stop off. It
// ignores the groups its session is handed.
func ScanTwin(eng core.Config) core.Config {
	eng.Mode = core.ModeScanRandom
	eng.EarlyStop.Enabled = false
	return eng
}

// WikiVersions returns the standard wiki engineering session that
// experiment T3 and `zombie -session` replay: eight single-part recipes,
// wiki-v1 … wiki-v8, in which the engineer starts from a low-capacity
// hashed bag of words and widens the hash space, boosts the
// infobox-marker signal and adds bigrams. A single-part recipe compiles
// to the part itself, so version N runs as featurepipe.NewWikiFeature(N).
func WikiVersions() []*Recipe {
	out := make([]*Recipe, 8)
	for v := range out {
		r, err := New(fmt.Sprintf("wiki-v%d", v+1), []Part{{Name: "wiki", Kind: "wiki", Version: v + 1}})
		if err != nil {
			panic(err) // static construction cannot fail
		}
		out[v] = r
	}
	return out
}

// thinkTime is the engineer's fixed time between versions (reading
// results, editing code). Both arms of a comparison pay it per version,
// which dilutes the relative speed-up exactly as in the paper's
// 8 h → 5 h arithmetic.
const thinkTime = 10 * time.Minute

// Wait is what a session costs the engineer — the paper's end-to-end
// unit of account.
type Wait struct {
	// Index is the one-time index build (zero for a scan session).
	Index time.Duration
	// Processing sums the versions' simulated processing time.
	Processing time.Duration
	// Think is the engineer's ten minutes per version.
	Think time.Duration
}

// Total is the engineer's whole wait: index + processing + think time.
func (w Wait) Total() time.Duration { return w.Index + w.Processing + w.Think }

// EngineerWait accounts a session's versions: the index build charged
// once, each version's simulated processing, and ten minutes of think
// time per version.
func EngineerWait(indexBuild time.Duration, versions []*Version) Wait {
	w := Wait{Index: indexBuild, Think: time.Duration(len(versions)) * thinkTime}
	for _, v := range versions {
		w.Processing += v.Run.SimTime
	}
	return w
}
