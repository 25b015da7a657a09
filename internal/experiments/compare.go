package experiments

import (
	"fmt"
	"sort"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/index"
	"zombie/internal/parallel"
)

// comparison is the time-to-quality contest between the random-scan
// baseline and Zombie on one workload — the primitive most experiments
// are built from.
type comparison struct {
	Target        float64
	Scan          *core.RunResult
	Zombie        *core.RunResult
	ScanInputs    int
	ZombieInputs  int
	ScanSim       time.Duration
	ZombieSim     time.Duration
	ScanReached   bool
	ZombieReached bool
}

// SpeedupInputs is how many times fewer inputs Zombie needed. Crossings
// at input 0 (a target already met by the floor) clamp to one evaluation
// interval so degenerate tiny-scale runs report 1x rather than dividing
// by zero.
func (c *comparison) SpeedupInputs() float64 {
	if !c.ScanReached || !c.ZombieReached {
		return 0
	}
	scan, zombie := c.ScanInputs, c.ZombieInputs
	if scan < 1 {
		scan = 1
	}
	if zombie < 1 {
		zombie = 1
	}
	return float64(scan) / float64(zombie)
}

// SpeedupSim is the simulated-time speedup, with the same degenerate-case
// clamping as SpeedupInputs.
func (c *comparison) SpeedupSim() float64 {
	if !c.ScanReached || !c.ZombieReached {
		return 0
	}
	scan, zombie := c.ScanSim, c.ZombieSim
	if scan <= 0 {
		scan = 1
	}
	if zombie <= 0 {
		zombie = 1
	}
	return float64(scan) / float64(zombie)
}

// engineFor builds the standard experiment engine: no early stop, no
// budget, usefulness reward unless overridden by mutate.
func engineFor(policy bandit.Spec, seed int64, mutate func(*core.Config)) (*core.Engine, error) {
	cfg := core.Config{Policy: policy, Seed: seed}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.New(cfg)
}

// policyFor resolves the effective policy: the workload's default when
// set, otherwise the experiment's requested spec.
func policyFor(w *Workload, requested bandit.Spec) bandit.Spec {
	if w.Policy != "" {
		return w.Policy
	}
	return requested
}

// compareToTarget runs the random scan and Zombie to pool exhaustion and
// locates the first curve point of each at targetFrac of the scan's final
// quality.
func compareToTarget(w *Workload, groups *index.Groups, policy bandit.Spec, targetFrac float64, seed int64, mutate func(*core.Config)) (*comparison, error) {
	scan, err := runStrategy(w, groups, core.ModeScanRandom, policy, seed, mutate)
	if err != nil {
		return nil, fmt.Errorf("experiments: scan run: %w", err)
	}
	zombie, err := runStrategy(w, groups, core.ModeZombie, policy, seed, mutate)
	if err != nil {
		return nil, fmt.Errorf("experiments: zombie run: %w", err)
	}
	// Base the target on the worse of the two finals so both runs reach
	// it by construction; frac < 1 relaxes positive metrics (F1), frac > 1
	// relaxes negative ones (-RMSE).
	base := scan.FinalQuality
	if zombie.FinalQuality < base {
		base = zombie.FinalQuality
	}
	target := targetFrac * base
	c := &comparison{Target: target, Scan: scan, Zombie: zombie}
	c.ScanInputs, c.ScanSim, c.ScanReached = scan.InputsToQuality(target)
	c.ZombieInputs, c.ZombieSim, c.ZombieReached = zombie.InputsToQuality(target)
	return c, nil
}

// compareMedian repeats compareToTarget over `trials` seeds — concurrently
// up to workers — and returns the trial with the median input-speedup.
// Time-to-quality crossings are noisy near flat curve regions; the median
// trial is what the tables report. Each trial's seed is a function of its
// index and the runs sort by speedup after all complete, so the median is
// identical for any worker count.
func compareMedian(w *Workload, groups *index.Groups, policy bandit.Spec, targetFrac float64, seed int64, trials, workers int, mutate func(*core.Config)) (*comparison, error) {
	if trials < 1 {
		trials = 1
	}
	runs, err := parallel.MapErr(workers, trials, func(i int) (*comparison, error) {
		return compareToTarget(w, groups, policy, targetFrac, seed+int64(1000*i), mutate)
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].SpeedupInputs() < runs[b].SpeedupInputs() })
	return runs[len(runs)/2], nil
}

// withWorkloadDefaults layers the workload's default reward under the
// caller's mutation.
func withWorkloadDefaults(w *Workload, mutate func(*core.Config)) func(*core.Config) {
	return func(c *core.Config) {
		c.Reward = w.Reward
		if mutate != nil {
			mutate(c)
		}
	}
}

// runStrategy executes one selection strategy on a workload: the zombie
// policies, the scans, or the oracle.
func runStrategy(w *Workload, groups *index.Groups, mode core.Mode, policy bandit.Spec, seed int64, mutate func(*core.Config)) (*core.RunResult, error) {
	eng, err := engineFor(policyFor(w, policy), seed, withWorkloadDefaults(w, func(c *core.Config) {
		c.Mode = mode
		if mutate != nil {
			mutate(c)
		}
	}))
	if err != nil {
		return nil, err
	}
	return eng.Run(w.Task, groups)
}
