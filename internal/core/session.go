package core

import (
	"context"
	"fmt"
	"time"

	"zombie/internal/featurepipe"
	"zombie/internal/index"
)

// IterationResult is one feature-code version's evaluation inside a
// session.
type IterationResult struct {
	Version string
	Run     *RunResult
}

// SessionResult aggregates a whole engineering session — the paper's
// end-to-end unit of account (8 hours → 5 hours).
type SessionResult struct {
	// Name and Mode label the session and the system under test
	// ("zombie" or "scan").
	Name string
	Mode string
	// Iterations holds one result per feature-code version, in order.
	Iterations []IterationResult
	// IndexBuild is the one-time indexing cost charged to Zombie
	// sessions (zero for scans).
	IndexBuild time.Duration
	// ThinkTime is the engineer's fixed between-run time, counted once
	// per iteration under both modes.
	ThinkTime time.Duration
	// ProcessingTime is the summed simulated processing across runs.
	ProcessingTime time.Duration
}

// TotalTime is the engineer's wait: indexing (if any) + processing +
// think time.
func (s *SessionResult) TotalTime() time.Duration {
	return s.IndexBuild + s.ProcessingTime + s.ThinkTime
}

// TotalInputs sums inputs processed across iterations.
func (s *SessionResult) TotalInputs() int {
	total := 0
	for _, it := range s.Iterations {
		total += it.Run.InputsProcessed
	}
	return total
}

// RunSession replays an engineering session: each feature-code version is
// evaluated in order against the same task split. With useZombie, runs go
// through the index groups under the engine's policy and early stopping,
// and the one-time index build cost is charged up front; otherwise each
// run is a full random scan with early stopping disabled (the status-quo
// engineer who processes the corpus every iteration).
func (e *Engine) RunSession(s *featurepipe.Session, base *featurepipe.Task, groups *index.Groups, useZombie bool) (*SessionResult, error) {
	return e.RunSessionContext(context.Background(), s, base, groups, useZombie)
}

// RunSessionContext is RunSession with cancellation: a cancelled context
// ends the session after the iteration that observed it, returning the
// iterations completed so far (the last one carrying Stop = StopCancelled)
// rather than an error.
func (e *Engine) RunSessionContext(ctx context.Context, s *featurepipe.Session, base *featurepipe.Task, groups *index.Groups, useZombie bool) (*SessionResult, error) {
	if s == nil || len(s.Versions) == 0 {
		return nil, fmt.Errorf("core: RunSession requires a non-empty session")
	}
	out := &SessionResult{Name: s.Name}
	thinkPer := time.Duration(s.ThinkTimeMinutes * float64(time.Minute))

	// Both arms run under the engine's config, the session fixing only
	// what it compares: the mode, and no early stop for the scan engineer
	// who processes the whole corpus.
	cfg := e.cfg
	if useZombie {
		if groups == nil {
			return nil, fmt.Errorf("core: zombie session requires groups")
		}
		out.Mode = "zombie"
		out.IndexBuild = groups.BuildTime
		cfg.Mode = ModeZombie
	} else {
		out.Mode = "scan"
		cfg.Mode = ModeScanRandom
		cfg.EarlyStop.Enabled = false
	}
	eng := &Engine{cfg: cfg}

	for i, version := range s.Versions {
		run, err := eng.RunContext(ctx, base.WithFeature(version), groups)
		if err != nil {
			return nil, fmt.Errorf("core: session %s iteration %d (%s): %w", s.Name, i, version.Name(), err)
		}
		out.Iterations = append(out.Iterations, IterationResult{Version: version.Name(), Run: run})
		out.ProcessingTime += run.SimTime
		out.ThinkTime += thinkPer
		if run.Stop == StopCancelled {
			break
		}
	}
	return out, nil
}
