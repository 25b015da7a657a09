package experiments

import (
	"fmt"
	"io"

	"zombie/internal/core"
	"zombie/internal/index"
)

// batchSweepSizes are the K values the batch sweep reports. K=1 is the
// classic per-step loop; K=16 is where the amortization headroom levels
// off on the reference workload.
var batchSweepSizes = []int{1, 4, 16}

// batchRun executes the standard wiki zombie run at the given batch size
// under the quality-delta reward — the reward whose per-step before/after
// holdout bracket batching amortizes.
func batchRun(wl *Workload, groups *index.Groups, batch int, seed int64) (*core.RunResult, error) {
	eng, err := engineFor("eps-greedy:0.1", seed, withWorkloadDefaults(wl, func(c *core.Config) {
		c.Reward = core.RewardQualityDelta
		c.BatchSize = batch
	}))
	if err != nil {
		return nil, err
	}
	return eng.Run(wl.Task, groups)
}

// runsMatch reports whether two runs are observably identical: same
// inputs, final quality, stop reason, and full learning curve. This is
// the batching determinism contract (wall time excluded, of course).
func runsMatch(a, b *core.RunResult) bool {
	if a.InputsProcessed != b.InputsProcessed || a.FinalQuality != b.FinalQuality ||
		a.Stop != b.Stop || len(a.Curve) != len(b.Curve) {
		return false
	}
	for i := range a.Curve {
		if a.Curve[i] != b.Curve[i] {
			return false
		}
	}
	return true
}

// B1BatchSweep reports the batched-step extension: throughput of the wiki
// quality-delta run at K ∈ {1, 4, 16}. It asserts the two halves of the
// batching contract before printing anything — K=1 must reproduce the
// unbatched run exactly, and every K must replay deterministically.
func B1BatchSweep(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	wl, err := WikiWorkload(cfg)
	if err != nil {
		return err
	}
	groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	if err != nil {
		return err
	}
	ref, err := batchRun(wl, groups, 0, cfg.Seed+2)
	if err != nil {
		return err
	}
	table := &Table{
		ID:     "B1",
		Title:  "Batched bandit steps (wiki, quality-delta reward)",
		Header: []string{"batch", "inputs", "final quality", "curve points", "identical to K=1"},
	}
	for _, k := range batchSweepSizes {
		res, err := batchRun(wl, groups, k, cfg.Seed+2)
		if err != nil {
			return err
		}
		again, err := batchRun(wl, groups, k, cfg.Seed+2)
		if err != nil {
			return err
		}
		if !runsMatch(res, again) {
			return fmt.Errorf("experiments: B1: batch K=%d did not replay deterministically", k)
		}
		identical := runsMatch(res, ref)
		if k == 1 && !identical {
			return fmt.Errorf("experiments: B1: K=1 diverged from the unbatched run")
		}
		table.AddRow(fmt.Sprintf("%d", k), fmt.Sprintf("%d", res.InputsProcessed),
			fmt.Sprintf("%.4f", res.FinalQuality), fmt.Sprintf("%d", len(res.Curve)),
			fmt.Sprintf("%t", identical))
	}
	table.Notes = []string{
		"every row replayed byte-identically; K=1 reproduces the unbatched loop exactly",
		"K>1 trades curve resolution (one point per batch boundary) for amortized selection/evaluation",
	}
	if err := table.Fprint(w); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w)
	return err
}
