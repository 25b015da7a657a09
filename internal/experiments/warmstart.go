package experiments

import (
	"fmt"
	"io"

	"zombie/internal/core"
	"zombie/internal/featcache"
	"zombie/internal/featurepipe"
	"zombie/internal/recipe"
)

// sessionWarmstartDecay is the warm-start decay the S1 experiment uses —
// the same 0.5 zombie-serve defaults sessions to, so the experiment
// validates the shipped default. Half trust beats full trust here: with
// decay 1.0 the seeded posterior occasionally over-commits to a group
// whose usefulness density hurts early F1 on an adverse corpus draw, and
// a single such run can erase the aggregate saving.
const sessionWarmstartDecay = 0.5

// sessionWarmstartTrials is how many independent corpora the comparison
// repeats over. Time-to-quality crossings are noisy near flat curve
// regions, and a fixed corpus correlates the trials, so each trial draws
// its own corpus and the claim is asserted on the aggregate.
const sessionWarmstartTrials = 7

// warmstartTrial is one corpus draw's warm-vs-cold pair.
type warmstartTrial struct {
	corpusSeed  int64
	v1Quality   float64
	target      float64
	coldTo      int // inputs for the cold v2 to reach target (capped when unreached)
	warmTo      int
	coldReached bool
	warmReached bool
	seededPulls int64
}

// saved is the trial's margin: inputs the warm start saved over the cold
// restart (negative when warm was slower).
func (t warmstartTrial) saved() int { return t.coldTo - t.warmTo }

// sessionWarmstartOutcome is the raw material of the S1 table.
type sessionWarmstartOutcome struct {
	trials     []warmstartTrial
	totalSaved int
}

// degenerate reports whether the comparison carries no signal: every
// trial's v1 plateaued at quality 0, so the 95%-of-plateau target is 0
// and both paths trivially "reach" it at zero inputs.
func (o *sessionWarmstartOutcome) degenerate() bool {
	for _, t := range o.trials {
		if t.target > 0 {
			return false
		}
	}
	return true
}

// runSessionWarmstart runs the warm-vs-cold comparison over
// sessionWarmstartTrials independent corpus draws (see runWarmstartTrial).
func runSessionWarmstart(cfg Config) (*sessionWarmstartOutcome, error) {
	cfg = cfg.withDefaults()
	out := &sessionWarmstartOutcome{}
	for i := 0; i < sessionWarmstartTrials; i++ {
		trialCfg := cfg
		trialCfg.Seed = cfg.Seed + int64(i)*7919 // distinct corpus per trial
		trial, err := runWarmstartTrial(trialCfg)
		if err != nil {
			return nil, err
		}
		out.trials = append(out.trials, trial)
		out.totalSaved += trial.saved()
	}
	// The acceptance claim: across independent corpus draws, warm-started
	// edits re-reach the previous version's plateau quality in fewer total
	// inputs than cold restarts. This is asserted, not just reported — a
	// regression that breaks seeding fails the experiment instead of
	// silently printing a worse table. The one exemption is the degenerate
	// zero-target case (every trial's v1 plateaued at 0), where both paths
	// trivially "reach" the target immediately and no comparison is
	// possible.
	if !out.degenerate() && out.totalSaved <= 0 {
		return nil, fmt.Errorf("experiments: S1: warm start saved %d inputs over %d independent corpora — expected a positive saving",
			out.totalSaved, len(out.trials))
	}
	return out, nil
}

// runWarmstartTrial is one corpus draw: recipe v1 (three wiki parts),
// then v2 with one part edited, once in a decay-0 session (v2 restarts
// cold) and once in a decay-0.5 session (v2's bandit is seeded from v1's
// arm statistics). The trial opens its own extraction cache: generated
// corpora reuse input IDs ("wiki-0001" exists in every draw), so a cache
// shared across trials would serve one corpus's extractions for
// another's inputs. Both paths share the trial's cache, so the
// comparison isolates the bandit warm start.
func runWarmstartTrial(cfg Config) (warmstartTrial, error) {
	trial := warmstartTrial{corpusSeed: cfg.Seed}
	r, err := defaultRow(cfg, WikiWorkload)
	if err != nil {
		return trial, err
	}
	cache, err := featcache.Open(featcache.Config{}, featurepipe.ResultCodec{})
	if err != nil {
		return trial, err
	}
	defer cache.Close()
	engCfg := core.Config{Policy: "thompson", Seed: cfg.Seed + 2, MaxInputs: cfg.n(3000), EvalEvery: 25, Cache: cache}
	v1, v2 := wikiChain("s1", 2, 4, 5), wikiChain("s1", 2, 4, 6)
	for _, decay := range []float64{0, sessionWarmstartDecay} {
		vs, err := recipe.Replay("s1", r.wl.Task, r.groups, recipe.Config{Engine: engCfg, Decay: decay}, v1, v2)
		if err != nil {
			return trial, err
		}
		target := r.wl.QualityTarget * vs[0].Run.FinalQuality
		to, _, reached := vs[1].Run.InputsToQuality(target)
		if !reached {
			to = vs[1].Run.InputsProcessed + 1 // rank unreached below any crossing
		}
		if decay == 0 {
			trial.v1Quality = vs[0].Run.FinalQuality
			trial.target = target
			trial.coldTo, trial.coldReached = to, reached
		} else {
			trial.warmTo, trial.warmReached = to, reached
			trial.seededPulls = vs[1].WarmStart.SeededPulls
		}
	}
	return trial, nil
}

// S1SessionWarmstart reproduces the session workspace's core claim (an
// extension beyond the paper): after editing one recipe part, seeding the
// new version's bandit from the previous version's arm statistics re-
// reaches plateau quality in fewer inputs than restarting cold, in
// aggregate over independent corpus draws. Wall-clock timings stay out of
// the table.
func S1SessionWarmstart(cfg Config, w io.Writer) error {
	out, err := runSessionWarmstart(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "S1",
		Title:  "Warm-vs-cold recipe session (edit one part of three, wiki, thompson)",
		Header: []string{"corpus-seed", "v1-plateau", "target", "cold-to-target", "warm-to-target", "saved", "seeded-pulls"},
	}
	cell := func(to int, reached bool) string {
		if !reached {
			return "n/a"
		}
		return d(to)
	}
	for _, tr := range out.trials {
		table.AddRow(fmt.Sprintf("%d", tr.corpusSeed), f(tr.v1Quality), f(tr.target),
			cell(tr.coldTo, tr.coldReached), cell(tr.warmTo, tr.warmReached),
			d(tr.saved()), fmt.Sprintf("%d", tr.seededPulls))
	}
	verdict := fmt.Sprintf("total inputs saved by the warm start over %d independent corpora: %d (decay %.1f; asserted > 0)",
		len(out.trials), out.totalSaved, sessionWarmstartDecay)
	if out.degenerate() {
		verdict = "degenerate at this scale: every v1 plateaued at quality 0, no comparison possible"
	}
	table.Notes = append(table.Notes,
		verdict,
		fmt.Sprintf("median inputs to re-reach v1 plateau: cold %d, warm %d",
			median(out.trials, func(t warmstartTrial) int { return t.coldTo }).coldTo,
			median(out.trials, func(t warmstartTrial) int { return t.warmTo }).warmTo),
		"each trial draws its own corpus and extraction cache; within a trial both paths share the cache, isolating the bandit warm start",
	)
	return table.Fprint(w)
}
