package experiments

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"zombie/internal/index"
	"zombie/internal/parallel"
	"zombie/internal/rng"
)

// buildNamedGroups builds groups for a workload with a named strategy
// (see index.NamedGrouper); used by the indexing ablation. "default" uses
// the workload's grouper. workers bounds the goroutines the k-means and
// tf-idf builds may use; the built groups are identical for any count.
func buildNamedGroups(wl *Workload, strategy string, k int, seed int64, workers int) (*index.Groups, error) {
	if strategy == "default" {
		return wl.Groups(k, seed)
	}
	g, err := index.NamedGrouper(wl.Store, strategy, index.KMeansConfig{MaxIter: 25, Workers: workers})
	if err != nil {
		return nil, err
	}
	return g.Group(wl.Store, k, rng.New(seed))
}

// Runner executes one experiment, writing its tables/series to w.
type Runner func(cfg Config, w io.Writer) error

var registry = map[string]struct {
	Title string
	Run   Runner
}{
	"C1": {"Extraction-cache warm-iteration speedup", C1CacheWarm},
	"T1": {"Dataset statistics", T1DatasetStats},
	"T2": {"Headline speedup (time to 95% quality)", T2Headline},
	"T3": {"End-to-end engineering session", T3Session},
	"T4": {"Index cost amortization", T4IndexCost},
	"F1": {"Learning curves", F1LearningCurves},
	"F2": {"Speedup vs group count", F2GroupCount},
	"F3": {"Bandit policy comparison", F3Policies},
	"F4": {"Reward-function ablation", F4Rewards},
	"F5": {"Early stopping", F5EarlyStop},
	"F6": {"Indexing-strategy ablation", F6Indexing},
	"F7": {"Arm-statistics aging ablation", F7Nonstationary},
	"F8": {"Speedup vs corpus size (extension)", F8Scaling},
	"S1": {"Warm-vs-cold recipe session (bandit warm start)", S1SessionWarmstart},
}

// IDs returns every experiment id in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Title returns an experiment's title, or "" for an unknown id.
func Title(id string) string { return registry[id].Title }

// Run executes the experiment with the given id.
func Run(id string, cfg Config, w io.Writer) error {
	entry, ok := registry[id]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, IDs())
	}
	return entry.Run(cfg, w)
}

// RunAll executes every experiment. With cfg.Parallel > 1 the experiments
// compute concurrently, each into a private buffer; buffers flush to w in
// ID order after all complete, so the combined output is byte-identical to
// the sequential run. On error the experiments that finished cleanly are
// still flushed (in order, up to the first failure) before the error
// returns — matching what a sequential run would have written.
func RunAll(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	ids := IDs()
	type outcome struct {
		buf bytes.Buffer
		err error
	}
	outs := make([]outcome, len(ids))
	parallel.ForEach(cfg.Parallel, len(ids), func(i int) {
		outs[i].err = Run(ids[i], cfg, &outs[i].buf)
	})
	for i, id := range ids {
		if outs[i].err != nil {
			return fmt.Errorf("experiments: %s: %w", id, outs[i].err)
		}
		if _, err := w.Write(outs[i].buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}
