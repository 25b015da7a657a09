// Package featurepipe models the feature-engineering side of Zombie: the
// engineer-written feature code that turns a raw input into a training
// example, the (simulated) cost of running that code over one input, the
// Task bundle the engine executes against, and the cache, fault and
// composite wrappers extraction goes through. The engineer's successive
// versions, the outer loop around Zombie's, are recipe.Session's.
package featurepipe

import (
	"fmt"
	"time"

	"zombie/internal/corpus"
	"zombie/internal/learner"
)

// Result is the outcome of running feature code on one raw input.
type Result struct {
	// Example is the produced training example; meaningful only when
	// Produced is true.
	Example learner.Example
	// Produced reports whether the input yielded a training example at
	// all. In extraction tasks most inputs yield nothing — that wasted
	// work is precisely what input selection avoids.
	Produced bool
	// Useful reports whether the input was useful in the task's sense
	// (e.g., produced a positive example). The engine's usefulness reward
	// is 1 exactly when this is true.
	Useful bool
}

// FeatureFunc is one version of the engineer's feature code. Extract must
// be deterministic and side-effect free: the engine may replay it, and
// per-run reproducibility depends on it. It may be called concurrently:
// holdout builds, in-process dist shards and server runs all do.
type FeatureFunc interface {
	// Name identifies the feature-code version in traces and tables.
	Name() string
	// Dim is the dimensionality of the produced feature vectors.
	Dim() int
	// NumClasses is the number of classes the produced labels range over
	// (0 for pure regression tasks).
	NumClasses() int
	// Extract runs the feature code on one input.
	Extract(in *corpus.Input) (Result, error)
}

// CostModel charges simulated processing time per input, standing in for
// the expensive parsing/vision/audio work real feature code performs. The
// engine adds Cost(input) to its simulated clock for every processed
// input; experiment tables report that clock. With Sleep set, the cost is
// also paid in real wall-clock time (demo realism only — benches keep it
// off).
type CostModel struct {
	// PerInput is the fixed cost per input.
	PerInput time.Duration
	// PerKB is added per kilobyte of raw payload.
	PerKB time.Duration
	// Sleep makes Cost also block for the computed duration.
	Sleep bool
}

// Cost returns the simulated processing cost of in, sleeping if
// configured.
func (c CostModel) Cost(in *corpus.Input) time.Duration {
	d := c.PerInput + time.Duration(float64(c.PerKB)*float64(in.SizeBytes())/1024)
	if c.Sleep && d > 0 {
		time.Sleep(d)
	}
	return d
}

// FuncCore holds the identity fields shared by the concrete feature
// functions; embedding it keeps each implementation focused on Extract.
type FuncCore struct {
	FuncName string
	FuncDim  int
	Classes  int
}

// Name implements FeatureFunc.
func (c FuncCore) Name() string { return c.FuncName }

// Dim implements FeatureFunc.
func (c FuncCore) Dim() int { return c.FuncDim }

// NumClasses implements FeatureFunc.
func (c FuncCore) NumClasses() int { return c.Classes }

// Validate checks the core fields are sane; concrete constructors call it.
func (c FuncCore) Validate() error {
	if c.FuncName == "" {
		return fmt.Errorf("featurepipe: feature function needs a name")
	}
	if c.FuncDim <= 0 {
		return fmt.Errorf("featurepipe: %s: dim must be > 0, got %d", c.FuncName, c.FuncDim)
	}
	if c.Classes < 0 {
		return fmt.Errorf("featurepipe: %s: NumClasses must be >= 0, got %d", c.FuncName, c.Classes)
	}
	return nil
}
