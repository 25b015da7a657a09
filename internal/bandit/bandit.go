// Package bandit implements the multi-armed-bandit substrate behind
// Zombie's online input-selection loop.
//
// Each index group built over the raw corpus becomes one arm. On every
// step of the inner loop the engine asks a Policy for an arm, processes
// that group's next raw input, and feeds the resulting reward (was the
// input useful? did holdout quality move?) back to the policy. Groups can
// run out of inputs mid-run, so Select takes an eligibility mask rather
// than assuming every arm is always playable.
//
// Rewards in Zombie are nonstationary: a group that is rich in useful
// inputs early stops paying once the learner has absorbed what it has to
// teach. The Estimator abstraction therefore supports cumulative,
// sliding-window, and exponentially discounted arm statistics; experiment
// F7 ablates the three.
package bandit

import (
	"fmt"
	"math"

	"zombie/internal/rng"
	"zombie/internal/stats"
)

// Policy selects which arm (index group) to play next and learns from the
// observed rewards. Implementations are deterministic given their RNG
// substream. A Policy is not safe for concurrent use.
type Policy interface {
	// Name identifies the policy in traces and experiment tables.
	Name() string
	// NumArms returns the number of arms the policy was built with.
	NumArms() int
	// Select returns the next arm to play among those with eligible[i]
	// true. It panics if eligible has the wrong length or no arm is
	// eligible; the engine checks for corpus exhaustion before calling.
	Select(eligible []bool) int
	// Update folds the reward observed for arm into the policy state.
	// It panics on an out-of-range arm.
	Update(arm int, reward float64)
	// Snapshot returns per-arm statistics for tracing.
	Snapshot() []ArmSnapshot
}

// ArmSnapshot is a point-in-time view of one arm's statistics.
type ArmSnapshot struct {
	Arm    int
	Pulls  int64
	Mean   float64
	Recent float64 // estimator view (windowed/discounted differ from Mean)
}

// Estimator tracks a reward estimate for a single arm.
type Estimator interface {
	Observe(reward float64)
	// Value returns the current estimate used for arm comparison.
	Value() float64
}

// StatsKind selects how arm reward estimates age.
type StatsKind int

const (
	// Cumulative averages every reward ever observed for the arm.
	Cumulative StatsKind = iota
	// Windowed averages only the most recent Window rewards.
	Windowed
	// Discounted multiplies history by Gamma per observation.
	Discounted
)

// String returns the kind's table label.
func (k StatsKind) String() string {
	switch k {
	case Cumulative:
		return "cumulative"
	case Windowed:
		return "windowed"
	case Discounted:
		return "discounted"
	default:
		return fmt.Sprintf("StatsKind(%d)", int(k))
	}
}

// StatsConfig configures per-arm estimators.
type StatsConfig struct {
	Kind   StatsKind
	Window int     // Windowed only; must be > 0
	Gamma  float64 // Discounted only; must be in (0,1)
}

// DefaultStats is the paper-default cumulative estimator.
func DefaultStats() StatsConfig { return StatsConfig{Kind: Cumulative} }

// NewEstimator builds one estimator for the configuration. It panics on an
// invalid configuration so misconfigured experiments fail loudly.
func (c StatsConfig) NewEstimator() Estimator {
	switch c.Kind {
	case Cumulative:
		return &cumulativeEstimator{}
	case Windowed:
		if c.Window <= 0 {
			panic("bandit: Windowed stats require Window > 0")
		}
		return &windowEstimator{win: stats.NewWindow(c.Window)}
	case Discounted:
		if c.Gamma <= 0 || c.Gamma >= 1 {
			panic("bandit: Discounted stats require Gamma in (0,1)")
		}
		return &discountedEstimator{gamma: c.Gamma}
	default:
		panic(fmt.Sprintf("bandit: unknown StatsKind %d", c.Kind))
	}
}

type cumulativeEstimator struct {
	n   float64
	sum float64
}

func (e *cumulativeEstimator) Observe(r float64) { e.n++; e.sum += r }
func (e *cumulativeEstimator) Value() float64 {
	if e.n == 0 {
		return 0
	}
	return e.sum / e.n
}

type windowEstimator struct {
	win *stats.Window
}

func (e *windowEstimator) Observe(r float64) { e.win.Add(r) }
func (e *windowEstimator) Value() float64    { return e.win.Mean() }

type discountedEstimator struct {
	gamma float64
	num   float64 // discounted reward sum
	den   float64 // discounted count
}

func (e *discountedEstimator) Observe(r float64) {
	e.num = e.gamma*e.num + r
	e.den = e.gamma*e.den + 1
}

func (e *discountedEstimator) Value() float64 {
	if e.den == 0 {
		return 0
	}
	return e.num / e.den
}

// arms is the bookkeeping every policy shares: one estimator and one pull
// count per arm. Embedded in a policy it supplies NumArms, Update and
// Snapshot, so a policy writes its Name and its selection rule, and wraps
// Update or Snapshot only when it keeps state of its own.
type arms struct {
	est   []Estimator
	pulls []int64
	total int64
}

func newArms(n int, cfg StatsConfig) *arms {
	if n <= 0 {
		panic("bandit: policies require at least one arm")
	}
	a := &arms{est: make([]Estimator, n), pulls: make([]int64, n)}
	for i := range a.est {
		a.est[i] = cfg.NewEstimator()
	}
	return a
}

// NumArms implements Policy.
func (a *arms) NumArms() int { return len(a.est) }

// Update implements Policy.
func (a *arms) Update(arm int, reward float64) {
	if arm < 0 || arm >= len(a.est) {
		panic(fmt.Sprintf("bandit: Update arm %d out of range [0,%d)", arm, len(a.est)))
	}
	a.est[arm].Observe(reward)
	a.pulls[arm]++
	a.total++
}

// Snapshot implements Policy.
func (a *arms) Snapshot() []ArmSnapshot {
	out := make([]ArmSnapshot, len(a.est))
	for i := range out {
		v := a.est[i].Value()
		out[i] = ArmSnapshot{Arm: i, Pulls: a.pulls[i], Mean: v, Recent: v}
	}
	return out
}

// argmax returns the arm in idx with the highest score, breaking ties
// uniformly at random. It draws from r only when several arms tie.
func argmax(idx []int, r *rng.RNG, score func(arm int) float64) int {
	best := math.Inf(-1)
	var ties []int
	for _, i := range idx {
		switch v := score(i); {
		case v > best:
			best = v
			ties = append(ties[:0], i)
		case v == best:
			ties = append(ties, i)
		}
	}
	if len(ties) == 1 {
		return ties[0]
	}
	return ties[r.Choice(len(ties))]
}

// ucb is the upper-confidence rule UCB1, SW-UCB and D-UCB share. An
// eligible arm without observations (unseen) is played first, uniformly at
// random; otherwise every arm scores mean + c·sqrt(2·ln t / n) and argmax
// picks. The three policies differ only in how they count n, mean and t.
func ucb(idx []int, r *rng.RNG, c, t float64, unseen func(arm int) bool, n, mean func(arm int) float64) int {
	var fresh []int
	for _, i := range idx {
		if unseen(i) {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) > 0 {
		return fresh[r.Choice(len(fresh))]
	}
	return argmax(idx, r, func(i int) float64 {
		return mean(i) + c*math.Sqrt(2*math.Log(t)/n(i))
	})
}

// checkEligible validates the mask and returns the eligible arm indices.
// It panics if the mask length is wrong or no arm is eligible.
func checkEligible(n int, eligible []bool) []int {
	if len(eligible) != n {
		panic(fmt.Sprintf("bandit: eligibility mask length %d, want %d", len(eligible), n))
	}
	idx := make([]int, 0, n)
	for i, ok := range eligible {
		if ok {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		panic("bandit: Select with no eligible arm")
	}
	return idx
}

// AllEligible returns a mask of n true values, for callers that never
// exhaust arms (tests, simulations).
func AllEligible(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}
