package experiments

import (
	"fmt"
	"io"

	"zombie/internal/parallel"
)

// F8Scaling is an extension experiment beyond the paper's figures: Zombie's
// speedup as a function of corpus size on the image task. Input selection
// pays more the bigger the haystack — the number of inputs needed to reach
// the quality target is roughly constant for Zombie (it depends on how
// many *useful* inputs the learner needs) while the random scan's grows
// linearly with the corpus, so the speedup should grow with N.
func F8Scaling(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	table := &Table{
		ID:     "F8",
		Title:  "Speedup vs corpus size (image task; extension)",
		Header: []string{"corpus-n", "target-q", "scan-inputs", "zombie-inputs", "speedup"},
	}
	fracs := []float64{0.125, 0.25, 0.5, 1.0}
	rows, err := parallel.MapErr(cfg.Parallel, len(fracs), func(i int) ([]string, error) {
		sub := cfg
		sub.Scale = cfg.Scale * fracs[i]
		wl, err := ImageWorkload(sub)
		if err != nil {
			return nil, err
		}
		groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		c, err := compareMedian(wl, groups, cfg.Seed+2, cfg.Parallel)
		if err != nil {
			return nil, err
		}
		if !c.ScanReached || !c.ZombieReached {
			return []string{d(wl.Store.Len()), f(c.Target), "n/a", "n/a", "n/a"}, nil
		}
		return []string{
			d(wl.Store.Len()),
			f(c.Target),
			d(c.ScanInputs),
			d(c.ZombieInputs),
			spd(c.SpeedupInputs()),
		}, nil
	})
	if err != nil {
		return err
	}
	for _, row := range rows {
		table.AddRow(row...)
	}
	table.Notes = append(table.Notes,
		fmt.Sprintf("fractions of the configured scale (%.2f); corpus floor is 400 inputs", cfg.Scale),
		"expected shape: speedup grows with corpus size — the scan pays for the whole haystack, zombie only for the needles")
	return table.Fprint(w)
}
