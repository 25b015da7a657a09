package experiments

import (
	"fmt"
	"io"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/parallel"
	"zombie/internal/trace"
)

// F1LearningCurves reproduces the learning-curve figure: holdout quality
// vs inputs processed for Zombie, the random scan, the sequential scan,
// and the oracle skyline, per task. Series print in long-form CSV.
func F1LearningCurves(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	workloads, err := AllWorkloads(cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "=== F1: Learning curves (quality vs inputs processed) ==="); err != nil {
		return err
	}
	strategies := []core.Mode{core.ModeZombie, core.ModeScanRandom, core.ModeScanSequential, core.ModeOracle}
	// Every (workload, strategy) run is independent; fan them all out and
	// emit the series in the original nested order.
	perWorkload, err := parallel.MapErr(cfg.Parallel, len(workloads), func(i int) ([]*trace.Series, error) {
		wl := workloads[i]
		groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		return parallel.MapErr(cfg.Parallel, len(strategies), func(j int) (*trace.Series, error) {
			res, err := runStrategy(wl, groups, strategies[j], comparePolicy, cfg.Seed+2, nil)
			if err != nil {
				return nil, err
			}
			s := &trace.Series{Name: wl.Task.Name + "/" + string(strategies[j])}
			for _, p := range downsampleCurve(res.Curve, 40) {
				s.AddPoint(float64(p.Inputs), p.Quality)
			}
			return s, nil
		})
	})
	if err != nil {
		return err
	}
	for _, series := range perWorkload {
		if err := trace.WriteSeriesCSV(w, series...); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintln(w)
	return err
}

// downsampleCurve keeps at most n evenly spaced points (always including
// the first and last).
func downsampleCurve(curve []core.CurvePoint, n int) []core.CurvePoint {
	if len(curve) <= n || n < 2 {
		return curve
	}
	out := make([]core.CurvePoint, 0, n)
	for i := 0; i < n-1; i++ {
		out = append(out, curve[i*(len(curve)-1)/(n-1)])
	}
	return append(out, curve[len(curve)-1])
}

// F2GroupCount reproduces the index-granularity figure: speedup versus the
// number of index groups k on the wiki task. k=1 degenerates to an
// unordered scan; very large k starves per-arm statistics.
func F2GroupCount(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	wl, err := WikiWorkload(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "F2",
		Title:  "Speedup vs number of index groups (wiki task)",
		Header: []string{"k", "zombie-inputs", "scan-inputs", "speedup", "useful-rate"},
	}
	var ks []int
	for _, k := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		if k <= len(wl.Task.PoolIdx) {
			ks = append(ks, k)
		}
	}
	rows, err := parallel.MapErr(cfg.Parallel, len(ks), func(i int) ([]string, error) {
		k := ks[i]
		groups, err := wl.Groups(k, cfg.Seed+int64(k))
		if err != nil {
			return nil, err
		}
		c, err := compareMedian(wl, groups, cfg.Seed+2, cfg.Parallel)
		if err != nil {
			return nil, err
		}
		if !c.ScanReached || !c.ZombieReached {
			return []string{d(k), "n/a", "n/a", "n/a", f(c.Zombie.UsefulRate())}, nil
		}
		return []string{d(k), d(c.ZombieInputs), d(c.ScanInputs), spd(c.SpeedupInputs()), f(c.Zombie.UsefulRate())}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		"median of 3 trials per k",
		"expected shape: speedup rises with k then flattens; k=1 ~= scan")
	return table.Fprint(w)
}

// F3Policies reproduces the bandit-policy comparison on the image task:
// inputs to target and useful inputs found at a fixed budget, per policy.
func F3Policies(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	wl, err := ImageWorkload(cfg)
	if err != nil {
		return err
	}
	groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "F3",
		Title:  "Bandit policy comparison (image task)",
		Header: []string{"policy", "inputs-to-target", "speedup-vs-scan", "useful-rate", "final-q"},
	}
	// One shared scan reference; every policy row depends on it, so it
	// must complete before the fan-out.
	ref, err := compareToTarget(wl, groups, cfg.Seed+2)
	if err != nil {
		return err
	}
	specs := []bandit.Spec{
		"greedy", "eps-greedy:0.05", "eps-greedy:0.1", "eps-greedy:0.2",
		"eps-decay:0.5:0.01", "ucb1:1", "thompson", "softmax:0.1",
		"exp3:0.1", "round-robin", "random",
	}
	rows, err := parallel.MapErr(cfg.Parallel, len(specs), func(i int) ([]string, error) {
		res, err := runStrategy(wl, groups, "zombie", specs[i], cfg.Seed+2, nil)
		if err != nil {
			return nil, err
		}
		inputs, _, reached := res.InputsToQuality(ref.Target)
		cell, speed := ref.vsScan(inputs, reached)
		return []string{string(specs[i]), cell, speed, f(res.UsefulRate()), f(res.FinalQuality)}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.AddRow("scan-random (baseline)", d(ref.ScanInputs), "1.00x", f(ref.Scan.UsefulRate()), f(ref.Scan.FinalQuality))
	table.Notes = append(table.Notes,
		"expected shape: eps-greedy / ucb1 / thompson cluster together ahead of round-robin and random")
	return table.Fprint(w)
}

// F4Rewards reproduces the reward-function ablation: usefulness vs
// quality-delta vs hybrid, per task.
func F4Rewards(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	workloads, err := AllWorkloads(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "F4",
		Title:  "Reward-function ablation",
		Header: []string{"task", "reward", "inputs-to-target", "speedup-vs-scan", "useful-rate"},
	}
	rewards := []core.RewardKind{core.RewardUsefulness, core.RewardQualityDelta, core.RewardHybrid}
	perWorkload, err := parallel.MapErr(cfg.Parallel, len(workloads), func(i int) ([][]string, error) {
		wl := workloads[i]
		groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		ref, err := compareToTarget(wl, groups, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		return parallel.MapErr(cfg.Parallel, len(rewards), func(j int) ([]string, error) {
			reward := rewards[j]
			res, err := runStrategy(wl, groups, "zombie", comparePolicy, cfg.Seed+2, func(c *core.Config) {
				c.Reward = reward
				c.RewardSubsample = 40
			})
			if err != nil {
				return nil, err
			}
			inputs, _, reached := res.InputsToQuality(ref.Target)
			cell, speed := ref.vsScan(inputs, reached)
			return []string{wl.Task.Name, reward.String(), cell, speed, f(res.UsefulRate())}, nil
		})
	})
	if err != nil {
		return err
	}
	for _, rows := range perWorkload {
		for _, row := range rows {
			table.AddRow(row...)
		}
	}
	table.Notes = append(table.Notes,
		"quality-delta pays per-step holdout-subsample evaluations; usefulness is the cheap default")
	return table.Fprint(w)
}

// F5EarlyStop reproduces the early-stopping figure: inputs saved vs
// quality lost across plateau slope thresholds, wiki task.
func F5EarlyStop(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	wl, err := WikiWorkload(cfg)
	if err != nil {
		return err
	}
	groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	if err != nil {
		return err
	}
	full, err := runStrategy(wl, groups, "zombie", comparePolicy, cfg.Seed+2, nil)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "F5",
		Title:  "Early stopping: inputs saved vs quality lost (wiki task)",
		Header: []string{"slope-threshold", "inputs", "saved%", "quality", "quality-loss", "stop"},
	}
	table.AddRow("disabled", d(full.InputsProcessed), "0.0%", f(full.FinalQuality), "0.000", full.Stop.String())
	thresholds := []float64{0.0005, 0.001, 0.002, 0.004, 0.008}
	rows, err := parallel.MapErr(cfg.Parallel, len(thresholds), func(i int) ([]string, error) {
		th := thresholds[i]
		res, err := runStrategy(wl, groups, "zombie", comparePolicy, cfg.Seed+2, func(c *core.Config) {
			c.EarlyStop = core.EarlyStopConfig{
				Enabled:        true,
				Window:         8,
				SlopeThreshold: th,
				Patience:       2,
				MinInputs:      200,
			}
		})
		if err != nil {
			return nil, err
		}
		saved := 100 * (1 - float64(res.InputsProcessed)/float64(full.InputsProcessed))
		return []string{
			fmt.Sprintf("%.4f", th),
			d(res.InputsProcessed),
			fmt.Sprintf("%.1f%%", saved),
			f(res.FinalQuality),
			f(full.FinalQuality - res.FinalQuality),
			res.Stop.String(),
		}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		"expected shape: mild thresholds save most of the corpus at <1-2% quality loss")
	return table.Fprint(w)
}

// F6Indexing reproduces the indexing-strategy ablation on the wiki task:
// informative clustering vs attribute bucketing vs uninformative
// partitions vs the ground-truth oracle grouping.
func F6Indexing(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	wl, err := WikiWorkload(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "F6",
		Title:  "Indexing-strategy ablation (wiki task)",
		Header: []string{"index", "inputs-to-target", "speedup-vs-scan", "useful-rate"},
	}
	groupsDefault, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	if err != nil {
		return err
	}
	ref, err := compareMedian(wl, groupsDefault, cfg.Seed+2, cfg.Parallel)
	if err != nil {
		return err
	}
	strats := []string{"kmeans-text", "kmeans-tfidf", "lsh-text", "attribute:category", "hash", "random", "oracle"}
	rows, err := parallel.MapErr(cfg.Parallel, len(strats), func(i int) ([]string, error) {
		strat := strats[i]
		groups, err := buildNamedGroups(wl, strat, wl.DefaultK, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		trials, err := overTrials(cfg.Parallel, cfg.Seed+2, func(seed int64) (*core.RunResult, error) {
			return runStrategy(wl, groups, "zombie", comparePolicy, seed, nil)
		})
		if err != nil {
			return nil, err
		}
		// An unreached target counts the full pool.
		toTarget := func(res *core.RunResult) int {
			inputs, _, reached := res.InputsToQuality(ref.Target)
			if !reached {
				return res.InputsProcessed
			}
			return inputs
		}
		mid := median(trials, toTarget)
		cell, speed := ref.vsScan(toTarget(mid), true)
		return []string{strat, cell, speed, f(mid.UsefulRate())}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.AddRow("scan-random (baseline)", d(ref.ScanInputs), "1.00x", f(ref.Scan.UsefulRate()))
	table.Notes = append(table.Notes,
		"median of 3 trials per strategy",
		"hash/random are uninformative partitions: the bandit cannot beat the scan there",
		"oracle groups purely by ground-truth usefulness; a useful-first stream is NOT optimal for F1 (class balance matters), so it can trail content-based indexes")
	return table.Fprint(w)
}

// F7Nonstationary reproduces the nonstationarity ablation: cumulative vs
// sliding-window vs discounted arm statistics on the image task. Arm
// payoffs drift as rich groups deplete, so forgetting helps.
func F7Nonstationary(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	wl, err := ImageWorkload(cfg)
	if err != nil {
		return err
	}
	groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	if err != nil {
		return err
	}
	ref, err := compareToTarget(wl, groups, cfg.Seed+2)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "F7",
		Title:  "Arm-statistics aging ablation (image task)",
		Header: []string{"arm-stats", "inputs-to-target", "speedup-vs-scan", "useful-rate", "final-q"},
	}
	variants := []struct {
		name   string
		policy bandit.Spec
		cfg    bandit.StatsConfig
	}{
		{"cumulative", "eps-greedy:0.1", bandit.StatsConfig{Kind: bandit.Cumulative}},
		{"window-500", "eps-greedy:0.1", bandit.StatsConfig{Kind: bandit.Windowed, Window: 500}},
		{"window-200", "eps-greedy:0.1", bandit.StatsConfig{Kind: bandit.Windowed, Window: 200}},
		{"window-50", "eps-greedy:0.1", bandit.StatsConfig{Kind: bandit.Windowed, Window: 50}},
		{"discount-0.99", "eps-greedy:0.1", bandit.StatsConfig{Kind: bandit.Discounted, Gamma: 0.99}},
		{"discount-0.9", "eps-greedy:0.1", bandit.StatsConfig{Kind: bandit.Discounted, Gamma: 0.9}},
		// Policy-level forgetting: the nonstationary-bandit literature's
		// answers, compared against estimator-level aging above.
		{"sw-ucb-200", "sw-ucb:200:1", bandit.StatsConfig{}},
		{"d-ucb-0.99", "d-ucb:0.99:1", bandit.StatsConfig{}},
	}
	rows, err := parallel.MapErr(cfg.Parallel, len(variants), func(i int) ([]string, error) {
		v := variants[i]
		res, err := runStrategy(wl, groups, "zombie", v.policy, cfg.Seed+2, func(c *core.Config) {
			c.PolicyStats = v.cfg
		})
		if err != nil {
			return nil, err
		}
		inputs, _, reached := res.InputsToQuality(ref.Target)
		cell, speed := ref.vsScan(inputs, reached)
		return []string{v.name, cell, speed, f(res.UsefulRate()), f(res.FinalQuality)}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		"groups deplete as the run progresses, so an arm's payoff is nonstationary by construction")
	return table.Fprint(w)
}
