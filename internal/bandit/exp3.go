package bandit

import (
	"fmt"
	"math"

	"zombie/internal/rng"
)

// EXP3 implements the adversarial-bandit algorithm of Auer et al. with
// exploration mixing parameter Gamma in (0,1]. It makes no stationarity
// assumption at all, which makes it a natural point of comparison for
// Zombie's drifting rewards even though its regret bounds are looser than
// the stochastic policies on well-clustered corpora.
//
// Rewards are clamped into [0,1] before the exponential weight update (the
// standard EXP3 requirement); weights are renormalized whenever they grow
// large to avoid overflow on long runs.
type EXP3 struct {
	*arms
	Gamma   float64
	weights []float64
	r       *rng.RNG
	// lastProb remembers the selection probability of the last chosen
	// arm so Update can apply the importance-weighted estimate.
	lastProb []float64
}

// NewEXP3 returns an EXP3 policy over n arms. It panics if gamma is
// outside (0,1].
func NewEXP3(n int, gamma float64, cfg StatsConfig, r *rng.RNG) *EXP3 {
	if gamma <= 0 || gamma > 1 {
		panic("bandit: EXP3 gamma must be in (0,1]")
	}
	p := &EXP3{
		arms:     newArms(n, cfg),
		Gamma:    gamma,
		weights:  make([]float64, n),
		lastProb: make([]float64, n),
		r:        r,
	}
	for i := range p.weights {
		p.weights[i] = 1
	}
	return p
}

// Name implements Policy.
func (p *EXP3) Name() string { return fmt.Sprintf("exp3(%.2f)", p.Gamma) }

// probabilities computes the EXP3 distribution restricted to the eligible
// arms: p_i = (1-γ)·w_i/Σw + γ/K over eligible arms.
func (p *EXP3) probabilities(idx []int) []float64 {
	total := 0.0
	for _, i := range idx {
		total += p.weights[i]
	}
	k := float64(len(idx))
	probs := make([]float64, len(idx))
	for j, i := range idx {
		share := 0.0
		if total > 0 {
			share = p.weights[i] / total
		} else {
			share = 1 / k
		}
		probs[j] = (1-p.Gamma)*share + p.Gamma/k
	}
	return probs
}

// Select implements Policy.
func (p *EXP3) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	probs := p.probabilities(idx)
	j := p.r.WeightedChoice(probs)
	arm := idx[j]
	for i := range p.lastProb {
		p.lastProb[i] = 0
	}
	for k, i := range idx {
		p.lastProb[i] = probs[k]
	}
	return arm
}

// Update implements Policy.
func (p *EXP3) Update(arm int, reward float64) {
	p.arms.Update(arm, reward)
	r := reward
	if r < 0 {
		r = 0
	}
	if r > 1 {
		r = 1
	}
	prob := p.lastProb[arm]
	if prob <= 0 {
		// Update for an arm not offered in the last Select (e.g. replay);
		// fall back to a uniform probability so the weight still moves.
		prob = 1 / float64(p.NumArms())
	}
	xhat := r / prob
	p.weights[arm] *= math.Exp(p.Gamma * xhat / float64(p.NumArms()))
	// Renormalize to keep weights bounded on long runs.
	max := 0.0
	for _, w := range p.weights {
		if w > max {
			max = w
		}
	}
	if max > 1e100 {
		for i := range p.weights {
			p.weights[i] /= max
		}
	}
}
