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
	fracs := []float64{0.125, 0.25, 0.5, 1.0}
	rows, err := parallel.MapErr(cfg.Parallel, len(fracs), func(i int) (row, error) {
		sub := cfg
		sub.Scale = cfg.Scale * fracs[i]
		r, err := defaultRow(sub, ImageWorkload)
		if err == nil {
			r.label = []string{d(r.wl.Store.Len())}
		}
		return r, err
	})
	if err != nil {
		return err
	}
	return compareTable(cfg, w, &Table{
		ID:     "F8",
		Title:  "Speedup vs corpus size (image task; extension)",
		Header: []string{"corpus-n"},
		Notes: []string{
			fmt.Sprintf("fractions of the configured scale (%.2f); corpus floor is 400 inputs", cfg.Scale),
			"expected shape: speedup grows with corpus size — the scan pays for the whole haystack, zombie only for the needles"},
	}, rows, compareTrials, targetColumn, scanInputsColumn, zombieInputsColumn, speedupColumn)
}
