// Package trace describes what a Zombie run did, step by step, and renders
// run series as CSV for the experiment harness. The engine hands each
// step's Event to core.Config.Event and keeps none; the serving layer keeps
// a bounded Ring per traced run and serves it as JSON and, through
// WriteCSV, as CSV.
package trace

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Event is one step of the inner loop.
type Event struct {
	// Step is the 1-based step number.
	Step int
	// InputIdx is the store index of the processed input.
	InputIdx int
	// Arm is the index group the input came from (0 for scan baselines).
	Arm int
	// Reward is the bandit reward credited for this step.
	Reward float64
	// Produced and Useful mirror the feature function's result.
	Produced bool
	Useful   bool
	// Err holds the extraction error message, if any.
	Err string
	// SimTime is the cumulative simulated processing time after the step.
	SimTime time.Duration
	// CacheHit reports whether the step's extraction was served (at least
	// in part) from the extraction cache.
	CacheHit bool
	// Quarantined reports whether the step quarantined its input (a
	// feature-code panic or corpus read failure the engine absorbed).
	Quarantined bool
}

// WriteCSV renders step events with a header row. Columns are
// append-only: consumers written against an older header keep parsing
// (the original eight columns are stable), new columns ride at the end.
func WriteCSV(w io.Writer, events []Event) error {
	if _, err := fmt.Fprintln(w, "step,input,arm,reward,produced,useful,err,sim_ms,cache_hit,quarantined"); err != nil {
		return err
	}
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%.6f,%t,%t,%s,%.3f,%t,%t\n",
			e.Step, e.InputIdx, e.Arm, e.Reward, e.Produced, e.Useful, csvQuote(e.Err),
			float64(e.SimTime)/float64(time.Millisecond), e.CacheHit, e.Quarantined); err != nil {
			return err
		}
	}
	return nil
}

// csvQuote renders s as an always-quoted RFC 4180 field: inner quotes are
// doubled, not backslash-escaped (feature-code panic messages routinely
// contain quotes and commas, and %q would emit CSV no parser accepts).
func csvQuote(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// Series is a named (x, y) sequence — one line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// AddPoint appends one point. It panics if the series has drifted out of
// sync, which would mean a harness bug.
func (s *Series) AddPoint(x, y float64) {
	if len(s.X) != len(s.Y) {
		panic(fmt.Sprintf("trace: series %q corrupt: %d xs vs %d ys", s.Name, len(s.X), len(s.Y)))
	}
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// WriteSeriesCSV renders multiple series long-form: series,x,y.
func WriteSeriesCSV(w io.Writer, series ...*Series) error {
	if _, err := fmt.Fprintln(w, "series,x,y"); err != nil {
		return err
	}
	for _, s := range series {
		if len(s.X) != len(s.Y) {
			return fmt.Errorf("trace: series %q has %d xs but %d ys", s.Name, len(s.X), len(s.Y))
		}
		for i := range s.X {
			if _, err := fmt.Fprintf(w, "%s,%g,%g\n", s.Name, s.X[i], s.Y[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
