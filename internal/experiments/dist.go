package experiments

import (
	"context"
	"fmt"
	"io"
	"reflect"

	"zombie/internal/core"
	"zombie/internal/corpus"
	"zombie/internal/dist"
	"zombie/internal/rng"
	"zombie/internal/workload"
)

// D1ShardInvariance is the distributed determinism check as an
// experiment: the standard wiki task run single-process and then sharded
// over 1, 2, and 4 in-process dist workers, asserting the quality curve
// and run summary are byte-identical at every worker count. The table
// records per-shard-count distribution stats (busy workers, step split);
// any divergence fails the experiment loudly rather than printing a
// subtly wrong row.
func D1ShardInvariance(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	gen := corpus.DefaultWikiConfig()
	gen.N = cfg.n(20000)
	ins, err := corpus.GenerateWiki(gen, rng.New(cfg.Seed).Split("wiki-corpus"))
	if err != nil {
		return err
	}
	store := corpus.NewMemStore(ins)
	// The task is rebuilt from the exact (name, store, version, seed-split)
	// recipe the dist workers use, so worker-side extraction is contractually
	// identical to the coordinator's reference run.
	task, grouper, err := workload.Build("wiki", store, 0, rng.New(cfg.Seed).Split("task"))
	if err != nil {
		return err
	}
	groups, err := grouper.Group(store, 32, rng.New(cfg.Seed).Split("index"))
	if err != nil {
		return err
	}
	maxInputs := store.Len() / 2
	if maxInputs > 800 {
		maxInputs = 800
	}
	eng, err := core.New(core.Config{Policy: "eps-greedy:0.1", Seed: cfg.Seed + 2, MaxInputs: maxInputs})
	if err != nil {
		return err
	}
	ref, err := eng.Run(task, groups)
	if err != nil {
		return err
	}

	table := &Table{
		ID:     "D1",
		Title:  "Distributed shard-count invariance (wiki task, local transport)",
		Header: []string{"shards", "workers-busy", "min-steps", "max-steps", "inputs", "final-q", "identical"},
	}
	table.AddRow("1 (in-engine)", "-", "-", "-", d(ref.InputsProcessed), f(ref.FinalQuality), "reference")
	for _, shards := range []int{1, 2, 4} {
		tr := dist.NewLocalTransport(store, shards, nil, nil)
		res, err := dist.Run(context.Background(), eng, tr,
			dist.Spec{RunID: fmt.Sprintf("d1-s%d", shards), Task: "wiki", Seed: cfg.Seed, Shards: shards},
			task, groups)
		tr.Close()
		if err != nil {
			return fmt.Errorf("experiments: D1 shards=%d: %w", shards, err)
		}
		if !sameRunResult(ref, res.RunResult) {
			return fmt.Errorf("experiments: D1 shards=%d diverged from the single-process run (determinism contract broken)", shards)
		}
		busy, minSteps, maxSteps := 0, res.RunResult.InputsProcessed, 0
		for _, ws := range res.Workers {
			if ws.Steps > 0 {
				busy++
			}
			if ws.Steps < minSteps {
				minSteps = ws.Steps
			}
			if ws.Steps > maxSteps {
				maxSteps = ws.Steps
			}
		}
		table.AddRow(d(shards), d(busy), d(minSteps), d(maxSteps),
			d(res.RunResult.InputsProcessed), f(res.RunResult.FinalQuality), "yes")
	}
	table.Notes = append(table.Notes,
		"identical = curve, arm stats, and summary byte-equal to the single-process engine",
		"the shard map is a pure function of (corpus size, shard count, seed); the policy never sees shards")
	return table.Fprint(w)
}

// sameRunResult compares everything the determinism contract covers —
// wall clock and phase timing legitimately vary between runs.
func sameRunResult(a, b *core.RunResult) bool {
	ca, cb := *a, *b
	ca.WallTime, cb.WallTime = 0, 0
	ca.Phases, cb.Phases = core.PhaseBreakdown{}, core.PhaseBreakdown{}
	return reflect.DeepEqual(ca, cb)
}
