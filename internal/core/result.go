package core

import (
	"fmt"
	"time"

	"zombie/internal/bandit"
)

// StopReason records why a run ended.
type StopReason int

const (
	// StopExhausted: the input pool ran dry.
	StopExhausted StopReason = iota
	// StopBudget: Config.MaxInputs was reached.
	StopBudget
	// StopEarly: the learning-curve plateau detector fired.
	StopEarly
	// StopCancelled: the run's context was cancelled mid-loop. The result
	// is still valid — curve so far, correct InputsProcessed — because a
	// cancelled run's partial learning curve is exactly what a service
	// caller wants to show for an aborted iteration.
	StopCancelled
	// StopFailed: quarantined inputs exceeded the failure budget
	// (Config.MaxFailureFrac) and the run degraded to its partial results.
	// The result is still valid — curve so far, quarantine list complete —
	// because "most of this corpus is broken" is itself the answer the
	// engineer needs, and an abort would discard the evidence.
	StopFailed
)

// String returns the reason's label.
func (s StopReason) String() string {
	switch s {
	case StopExhausted:
		return "exhausted"
	case StopBudget:
		return "budget"
	case StopEarly:
		return "early-stop"
	case StopCancelled:
		return "cancelled"
	case StopFailed:
		return "failed"
	default:
		return fmt.Sprintf("StopReason(%d)", int(s))
	}
}

// Quarantine records one input removed from a run after a failure the
// engine absorbed: a feature-code panic, a corpus read error, or a
// holdout input whose extraction failed. Quarantined inputs cost one
// record, not the run.
type Quarantine struct {
	// InputID is the corpus input's ID, or "#<store index>" when the read
	// itself failed before an ID was available.
	InputID string `json:"input_id"`
	// Site is the fault site ("extract", "corpus.read", "holdout").
	Site string `json:"site"`
	// Step is the 1-based loop step that hit the failure; 0 for inputs
	// quarantined while building the holdout, before the loop started.
	Step int `json:"step"`
	// Reason is the failure message.
	Reason string `json:"reason"`
}

// CurvePoint is one sample of the learning curve.
type CurvePoint struct {
	// Inputs is the number of inputs processed when the sample was taken.
	Inputs int
	// Quality is the full-holdout quality at that point.
	Quality float64
	// SimTime is the cumulative simulated processing time.
	SimTime time.Duration
}

// RunResult is everything one feature-evaluation run reports.
type RunResult struct {
	// Task and Strategy label the run ("wiki", "zombie(eps-greedy(0.10))").
	Task     string
	Strategy string
	// Curve is the learning curve, including the step-0 floor and the
	// final point.
	Curve []CurvePoint
	// InputsProcessed counts inputs actually run through feature code.
	InputsProcessed int
	// Produced / Useful / Errors break down the step outcomes.
	Produced int
	Useful   int
	Errors   int
	// FinalQuality is the last holdout evaluation.
	FinalQuality float64
	// SimTime is the total simulated processing time.
	SimTime time.Duration
	// WallTime is the real time the run took (engine overhead included).
	WallTime time.Duration
	// Phases breaks WallTime down by inner-loop phase (holdout build, arm
	// select, corpus read, extract, train, holdout eval, with the cache's
	// lookup overhead reported separately). Always filled; purely
	// observational — see PhaseBreakdown.
	Phases PhaseBreakdown
	// Stop records why the run ended.
	Stop StopReason
	// CacheHits / CacheMisses count this run's extraction-cache traffic
	// (both zero when Config.Cache is nil). They are diagnostics, not part
	// of the run's semantics, and are deliberately excluded from Summary so
	// identical runs print identically whether the cache was cold or warm.
	CacheHits   int64
	CacheMisses int64
	// Quarantined lists inputs the run removed after absorbed failures
	// (panicking feature code, corpus read errors, failed holdout
	// extractions), in the deterministic order they were hit. Empty for
	// clean runs. When the quarantine fraction exceeds
	// Config.MaxFailureFrac the run ends with Stop = StopFailed.
	Quarantined []Quarantine
	// Arms holds final per-group bandit statistics (nil for scans).
	Arms []bandit.ArmSnapshot
	// WarmStartPulls counts the synthetic pulls seeded into the policy
	// from Config.WarmStart before the first real selection (0 for cold
	// runs and scans). Seeded pulls are included in Arms' pull counts.
	WarmStartPulls int64
}

// InputsToQuality returns the first curve point at or above the target
// quality, reporting the inputs processed and simulated time it took.
// ok is false when the run never reached the target.
func (r *RunResult) InputsToQuality(target float64) (inputs int, sim time.Duration, ok bool) {
	for _, p := range r.Curve {
		if p.Quality >= target {
			return p.Inputs, p.SimTime, true
		}
	}
	return 0, 0, false
}

// UsefulRate returns Useful / InputsProcessed (0 for an empty run).
func (r *RunResult) UsefulRate() float64 {
	if r.InputsProcessed == 0 {
		return 0
	}
	return float64(r.Useful) / float64(r.InputsProcessed)
}

// Summary renders a one-line human-readable digest. Quarantine counts
// appear only when non-zero, so clean runs print exactly as they always
// have (scripts diff run output across configurations).
func (r *RunResult) Summary() string {
	s := fmt.Sprintf("%s/%s: inputs=%d useful=%d (%.1f%%) errors=%d quality=%.4f sim=%s stop=%s",
		r.Task, r.Strategy, r.InputsProcessed, r.Useful, 100*r.UsefulRate(),
		r.Errors, r.FinalQuality, r.SimTime.Round(time.Millisecond), r.Stop)
	if len(r.Quarantined) > 0 {
		s += fmt.Sprintf(" quarantined=%d", len(r.Quarantined))
	}
	return s
}
