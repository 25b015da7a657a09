package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/index"
	"zombie/internal/parallel"
	"zombie/internal/trace"
)

// comparePolicy is the bandit policy every experiment runs zombie with
// unless the experiment itself varies the policy or the workload names
// its own; compareTrials is how many seeds a median comparison repeats
// over.
const (
	comparePolicy bandit.Spec = "eps-greedy:0.1"
	compareTrials             = 3
)

// comparison is the time-to-quality contest between the random-scan
// baseline and Zombie on one workload — the primitive most experiments
// are built from.
type comparison struct {
	Target        float64
	Scan          *run
	Zombie        *run
	ScanInputs    int
	ZombieInputs  int
	ScanSim       time.Duration
	ZombieSim     time.Duration
	ScanReached   bool
	ZombieReached bool
}

// reached reports whether both runs reached the target.
func (c *comparison) reached() bool { return c.ScanReached && c.ZombieReached }

// SpeedupInputs is how many times fewer inputs Zombie needed, 0 when
// either run missed the target.
func (c *comparison) SpeedupInputs() float64 {
	if !c.reached() {
		return 0
	}
	return clampedRatio(c.ScanInputs, c.ZombieInputs)
}

// SpeedupSim is the simulated-time speedup, 0 when either run missed the
// target.
func (c *comparison) SpeedupSim() float64 {
	if !c.reached() {
		return 0
	}
	return clampedRatio(c.ScanSim, c.ZombieSim)
}

// clampedRatio is scan/zombie with both sides clamped to at least 1:
// crossings at input 0 (a target already met by the floor) count as one
// unit, so degenerate tiny-scale runs report 1x rather than dividing by
// zero.
func clampedRatio[T int | time.Duration](scan, zombie T) float64 {
	return float64(max(scan, 1)) / float64(max(zombie, 1))
}

// vsScan renders the "inputs-to-target" and "speedup-vs-scan" cells of a
// run that needed inputs to reach c's target. Both read "n/a" when the
// run or the scan did not reach it.
func (c *comparison) vsScan(inputs int, reached bool) (cell, speedup string) {
	if !reached || !c.ScanReached || inputs <= 0 {
		return "n/a", "n/a"
	}
	return d(inputs), spd(float64(c.ScanInputs) / float64(inputs))
}

// compareToTarget runs the random scan and Zombie to pool exhaustion and
// locates the first curve point of each at the workload's quality target
// fraction of the scan's final quality.
func compareToTarget(w *Workload, groups *index.Groups, seed int64) (*comparison, error) {
	scan, err := runStrategy(w, groups, core.ModeScanRandom, comparePolicy, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: scan run: %w", err)
	}
	zombie, err := runStrategy(w, groups, core.ModeZombie, comparePolicy, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("experiments: zombie run: %w", err)
	}
	// Base the target on the worse of the two finals so both runs reach
	// it by construction; frac < 1 relaxes positive metrics (F1), frac > 1
	// relaxes negative ones (-RMSE).
	target := w.QualityTarget * min(scan.FinalQuality, zombie.FinalQuality)
	c := &comparison{Target: target, Scan: scan, Zombie: zombie}
	c.ScanInputs, c.ScanSim, c.ScanReached = scan.InputsToQuality(target)
	c.ZombieInputs, c.ZombieSim, c.ZombieReached = zombie.InputsToQuality(target)
	return c, nil
}

// compareMedian repeats compareToTarget over trials seeds and returns the
// trial with the median input-speedup. Time-to-quality crossings are
// noisy near flat curve regions; the median trial is what the tables
// report.
func compareMedian(w *Workload, groups *index.Groups, seed int64, trials, workers int) (*comparison, error) {
	runs, err := overTrials(workers, trials, seed, func(seed int64) (*comparison, error) {
		return compareToTarget(w, groups, seed)
	})
	if err != nil {
		return nil, err
	}
	return median(runs, (*comparison).SpeedupInputs), nil
}

// overTrials runs trial for the n seeds seed+1000·i, concurrently up to
// workers, and returns the results in seed order, so what a caller
// derives from them is identical for any worker count.
func overTrials[T any](workers, n int, seed int64, trial func(seed int64) (T, error)) ([]T, error) {
	return parallel.MapErr(workers, n, func(i int) (T, error) {
		return trial(seed + int64(1000*i))
	})
}

// median returns the element of xs ranked in the middle by key (the
// upper middle for an even count); ties keep their order in xs.
func median[T any, K cmp.Ordered](xs []T, key func(T) K) T {
	sorted := slices.Clone(xs)
	slices.SortStableFunc(sorted, func(a, b T) int { return cmp.Compare(key(a), key(b)) })
	return sorted[len(sorted)/2]
}

// A run is one engine result, plus how many of its first n inputs were
// useful for every n, counted off the step stream.
type run struct {
	*core.RunResult
	useful []int
}

// usefulRate renders the useful rate over the inputs the run processed
// up to its first crossing of target: "n/a" when it never crossed, or
// crossed at the step-0 floor, before any input. Every run goes on to
// exhaust the pool, so the rate over the whole run would only restate
// the pool's.
func (r *run) usefulRate(target float64) string {
	inputs, _, reached := r.InputsToQuality(target)
	if !reached || inputs == 0 {
		return "n/a"
	}
	return f(float64(r.useful[inputs]) / float64(inputs))
}

// runStrategy executes one selection strategy on a workload: the zombie
// policies, the scans, or the oracle. The engine has no early stop and
// no budget, runs the workload's reward, and runs the workload's policy
// in place of the requested one when the workload names one; mutate
// adjusts the rest. The useful counts come from the step-event hook,
// which the engine calls in step order and which cannot change the run.
func runStrategy(w *Workload, groups *index.Groups, mode core.Mode, policy bandit.Spec, seed int64, mutate func(*core.Config)) (*run, error) {
	if w.Policy != "" {
		policy = w.Policy
	}
	r := &run{useful: []int{0}}
	cfg := core.Config{Mode: mode, Policy: policy, Seed: seed, Reward: w.Reward, Event: func(e trace.Event) {
		n := r.useful[len(r.useful)-1]
		if e.Produced && e.Useful {
			n++
		}
		r.useful = append(r.useful, n)
	}}
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	if r.RunResult, err = eng.Run(w.Task, groups); err != nil {
		return nil, err
	}
	return r, nil
}
