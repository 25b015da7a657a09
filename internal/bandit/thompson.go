package bandit

import (
	"math"

	"zombie/internal/rng"
)

// ThompsonBernoulli implements Thompson sampling with a Beta–Bernoulli
// posterior per arm. Rewards are clamped into [0,1] and applied as
// fractional pseudo-counts (alpha += r, beta += 1-r), which reduces to the
// textbook update for binary usefulness rewards — Zombie's default reward —
// while still accepting graded quality-delta rewards.
type ThompsonBernoulli struct {
	*arms
	alpha []float64
	beta  []float64
	r     *rng.RNG
}

// NewThompsonBernoulli returns a Thompson-sampling policy over n arms with
// a uniform Beta(1,1) prior.
func NewThompsonBernoulli(n int, cfg StatsConfig, r *rng.RNG) *ThompsonBernoulli {
	p := &ThompsonBernoulli{
		arms:  newArms(n, cfg),
		alpha: make([]float64, n),
		beta:  make([]float64, n),
		r:     r,
	}
	for i := 0; i < n; i++ {
		p.alpha[i], p.beta[i] = 1, 1
	}
	return p
}

// Name implements Policy.
func (p *ThompsonBernoulli) Name() string { return "thompson" }

// Select implements Policy.
func (p *ThompsonBernoulli) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	best := math.Inf(-1)
	bestArm := idx[0]
	for _, i := range idx {
		draw := p.r.Beta(p.alpha[i], p.beta[i])
		if draw > best {
			best = draw
			bestArm = i
		}
	}
	return bestArm
}

// Update implements Policy.
func (p *ThompsonBernoulli) Update(arm int, reward float64) {
	p.arms.Update(arm, reward)
	r := reward
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	p.alpha[arm] += r
	p.beta[arm] += 1 - r
}

// Snapshot implements Policy.
func (p *ThompsonBernoulli) Snapshot() []ArmSnapshot {
	out := p.arms.Snapshot()
	for i := range out {
		out[i].Recent = p.alpha[i] / (p.alpha[i] + p.beta[i])
	}
	return out
}
