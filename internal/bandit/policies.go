package bandit

import (
	"fmt"
	"math"

	"zombie/internal/rng"
)

// EpsilonGreedy plays the best-estimate arm with probability 1-ε and a
// uniformly random eligible arm with probability ε. This is Zombie's
// default policy. With DecayRate > 0 the effective ε at step t is
// ε / (1 + DecayRate·t), shifting from exploration to exploitation as the
// run progresses.
type EpsilonGreedy struct {
	*arms
	Epsilon   float64
	DecayRate float64
	r         *rng.RNG
	step      int64
}

// NewEpsilonGreedy returns an ε-greedy policy over n arms. It panics if
// epsilon is outside [0,1] or decayRate is negative.
func NewEpsilonGreedy(n int, epsilon, decayRate float64, cfg StatsConfig, r *rng.RNG) *EpsilonGreedy {
	if epsilon < 0 || epsilon > 1 {
		panic("bandit: epsilon must be in [0,1]")
	}
	if decayRate < 0 {
		panic("bandit: decayRate must be >= 0")
	}
	return &EpsilonGreedy{arms: newArms(n, cfg), Epsilon: epsilon, DecayRate: decayRate, r: r}
}

// Name implements Policy.
func (p *EpsilonGreedy) Name() string {
	if p.DecayRate > 0 {
		return fmt.Sprintf("eps-greedy(%.2f,decay=%.3f)", p.Epsilon, p.DecayRate)
	}
	return fmt.Sprintf("eps-greedy(%.2f)", p.Epsilon)
}

// Select implements Policy.
func (p *EpsilonGreedy) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	p.step++
	eps := p.Epsilon
	if p.DecayRate > 0 {
		eps = p.Epsilon / (1 + p.DecayRate*float64(p.step))
	}
	if p.r.Bernoulli(eps) {
		return idx[p.r.Choice(len(idx))]
	}
	return bestEligible(p.arms, idx, p.r)
}

// bestEligible returns the eligible arm with the highest estimate. Unpulled
// arms are treated as optimistic (estimate +Inf) so every arm is tried at
// least once; ties break uniformly at random to avoid index bias.
func bestEligible(a *arms, idx []int, r *rng.RNG) int {
	return argmax(idx, r, func(i int) float64 {
		if a.pulls[i] == 0 {
			return math.Inf(1)
		}
		return a.est[i].Value()
	})
}

// Softmax (Boltzmann exploration) selects arms with probability
// proportional to exp(estimate/Temperature).
type Softmax struct {
	*arms
	Temperature float64
	r           *rng.RNG
}

// NewSoftmax returns a Boltzmann policy. It panics if temperature <= 0.
func NewSoftmax(n int, temperature float64, cfg StatsConfig, r *rng.RNG) *Softmax {
	if temperature <= 0 {
		panic("bandit: softmax temperature must be > 0")
	}
	return &Softmax{arms: newArms(n, cfg), Temperature: temperature, r: r}
}

// Name implements Policy.
func (p *Softmax) Name() string { return fmt.Sprintf("softmax(%.2f)", p.Temperature) }

// Select implements Policy.
func (p *Softmax) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	// Max-shift for stability, computed over eligible arms only.
	max := math.Inf(-1)
	for _, i := range idx {
		if v := p.est[i].Value(); v > max {
			max = v
		}
	}
	weights := make([]float64, len(idx))
	for k, i := range idx {
		weights[k] = math.Exp((p.est[i].Value() - max) / p.Temperature)
	}
	return idx[p.r.WeightedChoice(weights)]
}

// RoundRobin cycles deterministically through the eligible arms; it
// ignores rewards. It is the "fair scan over groups" baseline.
type RoundRobin struct {
	*arms
	next int
}

// NewRoundRobin returns a round-robin policy over n arms.
func NewRoundRobin(n int, cfg StatsConfig) *RoundRobin {
	return &RoundRobin{arms: newArms(n, cfg)}
}

// Name implements Policy.
func (p *RoundRobin) Name() string { return "round-robin" }

// Select implements Policy.
func (p *RoundRobin) Select(eligible []bool) int {
	checkEligible(p.NumArms(), eligible)
	for off := 0; off < p.NumArms(); off++ {
		arm := (p.next + off) % p.NumArms()
		if eligible[arm] {
			p.next = (arm + 1) % p.NumArms()
			return arm
		}
	}
	panic("bandit: unreachable — checkEligible guarantees an eligible arm")
}

// UniformRandom picks an eligible arm uniformly at random; it ignores
// rewards. Selecting groups at random then draining inputs from them is
// statistically equivalent to a shuffled scan, making this the bandit-form
// random baseline.
type UniformRandom struct {
	*arms
	r *rng.RNG
}

// NewUniformRandom returns a uniform-random policy over n arms.
func NewUniformRandom(n int, cfg StatsConfig, r *rng.RNG) *UniformRandom {
	return &UniformRandom{arms: newArms(n, cfg), r: r}
}

// Name implements Policy.
func (p *UniformRandom) Name() string { return "uniform-random" }

// Select implements Policy.
func (p *UniformRandom) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	return idx[p.r.Choice(len(idx))]
}
