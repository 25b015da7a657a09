package bandit

import (
	"fmt"

	"zombie/internal/rng"
	"zombie/internal/stats"
)

// SWUCB is sliding-window UCB (Garivier & Moulines): UCB computed over
// only the most recent `window` plays across all arms. Where plain UCB1
// never forgets, SW-UCB tracks the drifting arm payoffs Zombie induces as
// index groups deplete — the policy-level counterpart of the windowed
// estimator ablated in experiment F7.
type SWUCB struct {
	// arms counts pulls; Select and Snapshot read the window, not its
	// estimators.
	*arms
	window int
	c      float64
	r      *rng.RNG
	// ring of the last `window` (arm, reward) plays.
	played  *stats.Window // stores arm indices as float64
	rewards *stats.Window
}

// NewSWUCB returns a sliding-window UCB policy over nArms arms with the
// given window and exploration constant c. It panics on window < 1 or
// c < 0.
func NewSWUCB(nArms, window int, c float64, r *rng.RNG) *SWUCB {
	if window < 1 {
		panic("bandit: SWUCB window must be >= 1")
	}
	if c < 0 {
		panic("bandit: SWUCB exploration constant must be >= 0")
	}
	return &SWUCB{
		arms:    newArms(nArms, DefaultStats()),
		window:  window,
		c:       c,
		r:       r,
		played:  stats.NewWindow(window),
		rewards: stats.NewWindow(window),
	}
}

// Name implements Policy.
func (p *SWUCB) Name() string { return fmt.Sprintf("sw-ucb(%d,%.2f)", p.window, p.c) }

// windowStats returns per-arm (count, mean) over the sliding window.
func (p *SWUCB) windowStats() (counts []float64, means []float64) {
	counts = make([]float64, p.NumArms())
	sums := make([]float64, p.NumArms())
	armVals := p.played.Values()
	rewVals := p.rewards.Values()
	for i := range armVals {
		a := int(armVals[i])
		counts[a]++
		sums[a] += rewVals[i]
	}
	means = make([]float64, p.NumArms())
	for a := range means {
		if counts[a] > 0 {
			means[a] = sums[a] / counts[a]
		}
	}
	return counts, means
}

// Select implements Policy. Any eligible arm absent from the window is
// played first.
func (p *SWUCB) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	counts, means := p.windowStats()
	return ucb(idx, p.r, p.c, float64(p.played.Len()),
		func(a int) bool { return counts[a] == 0 },
		func(a int) float64 { return counts[a] },
		func(a int) float64 { return means[a] })
}

// Update implements Policy.
func (p *SWUCB) Update(arm int, reward float64) {
	p.arms.Update(arm, reward)
	p.played.Add(float64(arm))
	p.rewards.Add(reward)
}

// Snapshot implements Policy.
func (p *SWUCB) Snapshot() []ArmSnapshot {
	_, means := p.windowStats()
	out := make([]ArmSnapshot, p.NumArms())
	for a := range out {
		out[a] = ArmSnapshot{Arm: a, Pulls: p.pulls[a], Mean: means[a], Recent: means[a]}
	}
	return out
}

// DUCB is discounted UCB (Kocsis & Szepesvári / Garivier & Moulines):
// every observation's weight decays by gamma per play, so the policy
// continuously forgets. The exploration bonus uses the effective sample
// counts.
type DUCB struct {
	// arms counts pulls; Select and Snapshot read discN and discSum, not
	// its estimators.
	*arms
	gamma float64
	c     float64
	r     *rng.RNG
	// Discounted sufficient statistics.
	discN   []float64
	discSum []float64
}

// NewDUCB returns a discounted-UCB policy. It panics on gamma outside
// (0,1) or c < 0.
func NewDUCB(nArms int, gamma, c float64, r *rng.RNG) *DUCB {
	if gamma <= 0 || gamma >= 1 {
		panic("bandit: DUCB gamma must be in (0,1)")
	}
	if c < 0 {
		panic("bandit: DUCB exploration constant must be >= 0")
	}
	return &DUCB{
		arms:    newArms(nArms, DefaultStats()),
		gamma:   gamma,
		c:       c,
		r:       r,
		discN:   make([]float64, nArms),
		discSum: make([]float64, nArms),
	}
}

// Name implements Policy.
func (p *DUCB) Name() string { return fmt.Sprintf("d-ucb(%.3f,%.2f)", p.gamma, p.c) }

// Select implements Policy. t is the eligible arms' total effective count.
func (p *DUCB) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	t := 0.0
	for _, a := range idx {
		t += p.discN[a]
	}
	if t < 1 {
		t = 1
	}
	return ucb(idx, p.r, p.c, t,
		func(a int) bool { return p.discN[a] <= 1e-9 },
		func(a int) float64 { return p.discN[a] },
		func(a int) float64 { return p.discSum[a] / p.discN[a] })
}

// Update implements Policy. Every arm's statistics decay on every play,
// which is what lets stale estimates fade even for unplayed arms.
func (p *DUCB) Update(arm int, reward float64) {
	p.arms.Update(arm, reward)
	for a := range p.discN {
		p.discN[a] *= p.gamma
		p.discSum[a] *= p.gamma
	}
	p.discN[arm]++
	p.discSum[arm] += reward
}

// Snapshot implements Policy.
func (p *DUCB) Snapshot() []ArmSnapshot {
	out := make([]ArmSnapshot, p.NumArms())
	for a := range out {
		mean := 0.0
		if p.discN[a] > 0 {
			mean = p.discSum[a] / p.discN[a]
		}
		out[a] = ArmSnapshot{Arm: a, Pulls: p.pulls[a], Mean: mean, Recent: mean}
	}
	return out
}
