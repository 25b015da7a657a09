package experiments

import (
	"context"
	"fmt"
	"io"
	"slices"
	"time"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/parallel"
	"zombie/internal/recipe"
)

// T1DatasetStats reproduces the dataset-statistics table: corpus sizes,
// usefulness rates, payload sizes, and default index shape per task.
func T1DatasetStats(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	workloads, err := AllWorkloads(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "T1",
		Title:  "Dataset statistics",
		Header: []string{"task", "inputs", "pool", "holdout", "useful%", "mean-bytes", "k", "min-group", "max-group"},
	}
	rows, err := parallel.MapErr(cfg.Parallel, len(workloads), func(i int) ([]string, error) {
		wl := workloads[i]
		st := corpus.ComputeStats(wl.Store)
		useful := usefulFraction(wl)
		groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		sizes := groups.Sizes()
		return []string{
			wl.Task.Name,
			d(st.Inputs),
			d(len(wl.Task.PoolIdx)),
			d(len(wl.Task.HoldoutIdx)),
			fmt.Sprintf("%.1f%%", 100*useful),
			fmt.Sprintf("%.0f", st.MeanBytes),
			d(wl.DefaultK),
			d(slices.Min(sizes)),
			d(slices.Max(sizes)),
		}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		"useful% is the ground-truth rate of inputs the task's reward marks useful",
		"groups built with each task's default k-means index")
	return table.Fprint(w)
}

// usefulFraction computes the ground-truth useful rate for a workload.
func usefulFraction(wl *Workload) float64 {
	n := wl.Store.Len()
	if n == 0 {
		return 0
	}
	useful := 0
	for i := 0; i < n; i++ {
		if core.OracleUseful(wl.Store.Get(i), wl.Task.Feature) {
			useful++
		}
	}
	return float64(useful) / float64(n)
}

// T2Headline reproduces the headline speedup table: inputs and simulated
// time to reach 95% of full-scan quality, random scan vs Zombie, per task.
// The paper reports speedups up to 8x on its most skewed task.
func T2Headline(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	workloads, err := AllWorkloads(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:    "T2",
		Title: "Time to 95% of full-scan quality (scan vs zombie)",
		Header: []string{"task", "target-q", "scan-inputs", "zombie-inputs", "speedup",
			"scan-time", "zombie-time", "time-speedup"},
	}
	rows, err := parallel.MapErr(cfg.Parallel, len(workloads), func(i int) ([]string, error) {
		wl := workloads[i]
		groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		c, err := compareMedian(wl, groups, cfg.Seed+2, cfg.Parallel)
		if err != nil {
			return nil, err
		}
		if !c.ScanReached || !c.ZombieReached {
			return []string{wl.Task.Name, f(c.Target), "n/a", "n/a", "n/a", "n/a", "n/a", "n/a"}, nil
		}
		return []string{
			wl.Task.Name,
			f(c.Target),
			d(c.ScanInputs),
			d(c.ZombieInputs),
			spd(c.SpeedupInputs()),
			c.ScanSim.Round(time.Second).String(),
			c.ZombieSim.Round(time.Second).String(),
			spd(c.SpeedupSim()),
		}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		"policy eps-greedy(0.1), per-task default reward, k=32 k-means groups, median of 3 trials",
		"paper claim: feature-evaluation speedups up to 8x on the most skewed task")
	return table.Fprint(w)
}

// T3Session reproduces the end-to-end engineering session table (paper:
// total engineer wait cut from 8 hours to 5).
func T3Session(cfg Config, w io.Writer) error {
	zombie, scan, indexCost, err := t3Sessions(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "T3",
		Title:  "End-to-end engineering session (8 feature versions, wiki task)",
		Header: []string{"iteration", "scan-inputs", "scan-q", "zombie-inputs", "zombie-q", "zombie-stop"},
	}
	for i := range scan {
		si, zi := scan[i].Run, zombie[i].Run
		table.AddRow(
			scan[i].Recipe.Name(),
			d(si.InputsProcessed), f(si.FinalQuality),
			d(zi.InputsProcessed), f(zi.FinalQuality),
			zi.Stop.String(),
		)
	}
	scanWait := recipe.EngineerWait(0, scan)
	zombieWait := recipe.EngineerWait(indexCost, zombie)
	ratio := 0.0
	if zombieWait.Total() > 0 {
		ratio = float64(scanWait.Total()) / float64(zombieWait.Total())
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("scan session total: %s (processing %s + think %s)",
			scanWait.Total().Round(time.Minute), scanWait.Processing.Round(time.Minute), scanWait.Think.Round(time.Minute)),
		fmt.Sprintf("zombie session total: %s (index %s + processing %s + think %s)",
			zombieWait.Total().Round(time.Minute), zombieWait.Index.Round(time.Second),
			zombieWait.Processing.Round(time.Minute), zombieWait.Think.Round(time.Minute)),
		fmt.Sprintf("session speedup %.2fx (paper shape: 8h -> 5h, i.e. 1.6x)", ratio),
	)
	return table.Fprint(w)
}

// t3Sessions evaluates the eight wiki feature-code versions in sequence
// under Zombie with early stopping and under the status-quo full random
// scan, and returns both sessions and the simulated cost of the index the
// zombie session ran over.
func t3Sessions(cfg Config) (zombie, scan []*recipe.Version, indexCost time.Duration, err error) {
	cfg = cfg.withDefaults()
	wl, err := WikiWorkload(cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	if err != nil {
		return nil, nil, 0, err
	}
	engCfg := sessionConfig(cfg.Seed + 2)
	// The status-quo engineer scans the whole corpus every version: a
	// random scan with no early stop, handed the same groups it ignores.
	scanCfg := engCfg
	scanCfg.Mode = core.ModeScanRandom
	scanCfg.EarlyStop.Enabled = false
	// The two sessions are independent (each run derives its own RNG
	// substreams), so they can race.
	arms, err := parallel.MapErr(cfg.Parallel, 2, func(i int) ([]*recipe.Version, error) {
		if i == 0 {
			return replaySession("zombie", wl.Task, groups, recipe.Config{Engine: engCfg}, recipe.WikiVersions()...)
		}
		return replaySession("scan", wl.Task, groups, recipe.Config{Engine: scanCfg}, recipe.WikiVersions()...)
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return arms[0], arms[1], simIndexCost(wl), nil
}

// sessionConfig is the engine T3 and C1 replay their zombie versions
// with: eps-greedy(0.1) and plateau early stopping.
func sessionConfig(seed int64) core.Config {
	return core.Config{Policy: comparePolicy, Seed: seed, EarlyStop: core.EarlyStopConfig{
		Enabled: true, Window: 8, SlopeThreshold: 0.002, Patience: 2, MinInputs: 400,
	}}
}

// replaySession submits the recipes in order to a fresh session and
// returns the versions. At cfg.Decay 0 warm-starting is off, so every
// version runs exactly as a cold run would.
func replaySession(name string, task *featurepipe.Task, groups *index.Groups, cfg recipe.Config, recipes ...*recipe.Recipe) ([]*recipe.Version, error) {
	s, err := recipe.NewSession(name, task, groups, cfg)
	if err != nil {
		return nil, err
	}
	versions := make([]*recipe.Version, len(recipes))
	for i, r := range recipes {
		if versions[i], err = s.Submit(context.Background(), r); err != nil {
			return nil, err
		}
	}
	return versions, nil
}

// simIndexCost is the simulated cost of a workload's offline index build:
// one cheap pass over the corpus at 2% of the task's per-input feature
// cost (index features avoid the expensive path by construction). T3 and
// T4 charge it instead of the measured build time, so both stay a pure
// function of the seed.
func simIndexCost(wl *Workload) time.Duration {
	return time.Duration(float64(wl.Task.Cost.PerInput) * 0.02 * float64(wl.Store.Len()))
}

// T4IndexCost reproduces the index amortization table: what the offline
// index build costs versus what each evaluation run saves, and how many
// runs it takes to break even.
func T4IndexCost(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	workloads, err := AllWorkloads(cfg)
	if err != nil {
		return err
	}
	table := &Table{
		ID:    "T4",
		Title: "Index build cost amortization",
		Header: []string{"task", "index-wall", "index-sim", "per-run-savings",
			"break-even-runs"},
	}
	rows, err := parallel.MapErr(cfg.Parallel, len(workloads), func(i int) ([]string, error) {
		wl := workloads[i]
		groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		simIndex := simIndexCost(wl)
		c, err := compareToTarget(wl, groups, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		if !c.ScanReached || !c.ZombieReached {
			return []string{wl.Task.Name, groups.BuildTime.Round(time.Millisecond).String(),
				simIndex.Round(time.Second).String(), "n/a", "n/a"}, nil
		}
		savings := c.ScanSim - c.ZombieSim
		breakEven := "never"
		if savings > 0 {
			breakEven = d(max(1, int((simIndex+savings-1)/savings))) // ceil, at least one run
		}
		return []string{
			wl.Task.Name,
			groups.BuildTime.Round(time.Millisecond).String(),
			simIndex.Round(time.Second).String(),
			savings.Round(time.Second).String(),
			breakEven,
		}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		"index-wall is measured wall-clock for k-means over the corpus",
		"index-sim charges one cheap corpus pass at 2% of the task's per-input cost",
		"per-run-savings is scan-vs-zombie simulated time to the 95% target")
	return table.Fprint(w)
}
