package experiments

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"

	"zombie/internal/bandit"
	"zombie/internal/core"
	"zombie/internal/index"
	"zombie/internal/parallel"
)

// A row is what one table row measures: the cells that name it, and the
// workload and index its runs select over.
type row struct {
	label  []string
	wl     *Workload
	groups *index.Groups
}

// defaultRow builds a workload and its default index — DefaultK groups at
// seed cfg.Seed+1, the index every experiment that does not vary it runs
// over.
func defaultRow(cfg Config, build func(Config) (*Workload, error)) (row, error) {
	wl, err := build(cfg)
	if err != nil {
		return row{}, err
	}
	groups, err := wl.Groups(wl.DefaultK, cfg.Seed+1)
	return row{wl: wl, groups: groups}, err
}

// taskRows is defaultRow over the three evaluation tasks, built
// concurrently up to cfg.Parallel and labelled by task name. Each builder
// seeds its own RNG substreams, so the rows are identical however they
// are scheduled.
func taskRows(cfg Config) ([]row, error) {
	builders := []func(Config) (*Workload, error){WikiWorkload, SongWorkload, ImageWorkload}
	return parallel.MapErr(cfg.Parallel, len(builders), func(i int) (row, error) {
		r, err := defaultRow(cfg, builders[i])
		if err == nil {
			r.label = []string{r.wl.Task.Name}
		}
		return r, err
	})
}

// A column is one cell of a comparison row after its label: a header,
// and how the cell renders from the row and its comparison. A column
// that reads the target crossing renders "n/a" unless both runs reached
// the target.
type column struct {
	header   string
	crossing bool
	cell     func(r row, c *comparison) string
}

// The comparison columns more than one table prints.
var (
	targetColumn       = column{"target-q", false, func(_ row, c *comparison) string { return f(c.Target) }}
	scanInputsColumn   = column{"scan-inputs", true, func(_ row, c *comparison) string { return d(c.ScanInputs) }}
	zombieInputsColumn = column{"zombie-inputs", true, func(_ row, c *comparison) string { return d(c.ZombieInputs) }}
	speedupColumn      = column{"speedup", true, func(_ row, c *comparison) string { return spd(c.SpeedupInputs()) }}
	// usefulColumn is zombie's useful rate up to its own crossing, so it
	// reads even when the scan missed the target.
	usefulColumn = column{"useful-rate", false, func(_ row, c *comparison) string { return c.Zombie.usefulRate(c.Target) }}
)

// compareTable prints t with one line per row: the row's label, then
// cols over a scan-vs-zombie comparison on the row's workload and index —
// the median of trials trials from seed cfg.Seed+2. Rows, and each row's
// trials, run concurrently up to cfg.Parallel.
func compareTable(cfg Config, w io.Writer, t *Table, rows []row, trials int, cols ...column) error {
	for _, col := range cols {
		t.Header = append(t.Header, col.header)
	}
	lines, err := parallel.MapErr(cfg.Parallel, len(rows), func(i int) ([]string, error) {
		r := rows[i]
		c, err := compareMedian(r.wl, r.groups, cfg.Seed+2, trials, cfg.Parallel)
		if err != nil {
			return nil, err
		}
		line := slices.Clone(r.label)
		for _, col := range cols {
			if col.crossing && !c.reached() {
				line = append(line, "n/a")
			} else {
				line = append(line, col.cell(r, c))
			}
		}
		return line, nil
	})
	if err != nil {
		return err
	}
	return emit(w, t, lines)
}

// A variant is one zombie configuration a variant table runs on every
// row: the cells that name it, its policy ("" runs comparePolicy), and an
// overlay on the rest of its engine configuration. A variant running
// comparePolicy without an overlay is the reference's own zombie run.
type variant struct {
	label  []string
	policy bandit.Spec
	mutate func(*core.Config)
}

// variantTable prints t with one line per row and variant: the row's
// label, the variant's, and the variant's inputs-to-target,
// speedup-vs-scan and useful-rate against the row's scan reference — one
// comparison at seed cfg.Seed+2, whose target every variant's run at the
// same seed is read at; a variant that is the reference's zombie run
// reads that run instead of repeating it. When baseline is not empty,
// each row's variants are followed by a line so labelled for the
// reference scan itself. Every run trains on the whole pool, so all of a
// row's runs end at one final quality: a note states it per row, and a
// run that ends elsewhere fails the table. Rows, and each row's variants,
// run concurrently up to cfg.Parallel.
func variantTable(cfg Config, w io.Writer, t *Table, rows []row, variants []variant, baseline string) error {
	t.Header = append(t.Header, "inputs-to-target", "speedup-vs-scan", "useful-rate")
	finals := make([]string, len(rows))
	perRow, err := parallel.MapErr(cfg.Parallel, len(rows), func(i int) ([][]string, error) {
		r := rows[i]
		ref, err := compareToTarget(r.wl, r.groups, cfg.Seed+2)
		if err != nil {
			return nil, err
		}
		final := f(ref.Scan.FinalQuality)
		finals[i] = r.wl.Task.Name + " " + final
		lines, err := parallel.MapErr(cfg.Parallel, len(variants), func(j int) ([]string, error) {
			v := variants[j]
			policy := cmp.Or(v.policy, comparePolicy)
			res := ref.Zombie
			if policy != comparePolicy || v.mutate != nil {
				var err error
				if res, err = runStrategy(r.wl, r.groups, core.ModeZombie, policy, cfg.Seed+2, v.mutate); err != nil {
					return nil, err
				}
			}
			if got := f(res.FinalQuality); got != final {
				return nil, fmt.Errorf("experiments: %s %s %v: final quality %s, the scan's is %s", t.ID, r.wl.Task.Name, v.label, got, final)
			}
			inputs, _, reached := res.InputsToQuality(ref.Target)
			cell, speed := ref.vsScan(inputs, reached)
			return slices.Concat(r.label, v.label, []string{cell, speed, res.usefulRate(ref.Target)}), nil
		})
		if err != nil || baseline == "" {
			return lines, err
		}
		return append(lines, slices.Concat(r.label, []string{baseline, d(ref.ScanInputs), "1.00x", ref.Scan.usefulRate(ref.Target)})), nil
	})
	if err != nil {
		return err
	}
	t.Notes = append(t.Notes, "final quality, shared by every line of a task since each run trains on the whole pool: "+strings.Join(finals, ", "))
	return emit(w, t, slices.Concat(perRow...))
}

// emit adds rows to t and prints it.
func emit(w io.Writer, t *Table, rows [][]string) error {
	for _, r := range rows {
		t.AddRow(r...)
	}
	return t.Fprint(w)
}
