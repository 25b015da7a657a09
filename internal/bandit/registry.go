package bandit

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"zombie/internal/rng"
)

// Spec describes a policy by name so experiment configurations and the CLI
// can construct policies from strings. Supported specs:
//
//	greedy                  ε-greedy with ε=0
//	eps-greedy:<ε>          e.g. eps-greedy:0.1
//	eps-decay:<ε>:<rate>    decaying ε-greedy
//	ucb1[:<c>]              UCB1, default c=1
//	sw-ucb[:<window>[:<c>]] sliding-window UCB, defaults 200, 1
//	d-ucb[:<gamma>[:<c>]]   discounted UCB, defaults 0.99, 1
//	thompson                Beta–Bernoulli Thompson sampling
//	softmax:<temperature>
//	exp3:<γ>
//	round-robin
//	random
type Spec string

// KnownSpecs returns example specs for each supported policy family, in
// stable order, for CLI help text.
func KnownSpecs() []string {
	s := []string{
		"greedy",
		"eps-greedy:0.1",
		"eps-decay:0.5:0.01",
		"ucb1:1",
		"sw-ucb:200:1",
		"d-ucb:0.99:1",
		"thompson",
		"softmax:0.1",
		"exp3:0.1",
		"round-robin",
		"random",
	}
	sort.Strings(s)
	return s
}

// Build constructs the policy the spec names over n arms, using cfg for
// arm statistics and r for randomness. It returns an error for an unknown
// or malformed spec. sw-ucb and d-ucb ignore cfg: they forget by their
// own window or discount, whatever estimator kind cfg names.
func (s Spec) Build(n int, cfg StatsConfig, r *rng.RNG) (Policy, error) {
	parts := strings.Split(string(s), ":")
	name := parts[0]
	argf := func(i int, def float64) (float64, error) {
		if len(parts) <= i {
			return def, nil
		}
		v, err := strconv.ParseFloat(parts[i], 64)
		if err != nil {
			return 0, fmt.Errorf("bandit: spec %q: bad argument %q: %v", s, parts[i], err)
		}
		return v, nil
	}
	switch name {
	case "greedy":
		return NewEpsilonGreedy(n, 0, 0, cfg, r), nil
	case "eps-greedy":
		eps, err := argf(1, 0.1)
		if err != nil {
			return nil, err
		}
		if eps < 0 || eps > 1 {
			return nil, fmt.Errorf("bandit: spec %q: epsilon %v out of [0,1]", s, eps)
		}
		return NewEpsilonGreedy(n, eps, 0, cfg, r), nil
	case "eps-decay":
		eps, err := argf(1, 0.5)
		if err != nil {
			return nil, err
		}
		rate, err := argf(2, 0.01)
		if err != nil {
			return nil, err
		}
		if eps < 0 || eps > 1 || rate < 0 {
			return nil, fmt.Errorf("bandit: spec %q: bad eps-decay parameters", s)
		}
		return NewEpsilonGreedy(n, eps, rate, cfg, r), nil
	case "ucb1":
		c, err := argf(1, 1)
		if err != nil {
			return nil, err
		}
		if c < 0 {
			return nil, fmt.Errorf("bandit: spec %q: c must be >= 0", s)
		}
		return NewUCB1(n, c, cfg, r), nil
	case "sw-ucb":
		win, err := argf(1, 200)
		if err != nil {
			return nil, err
		}
		c, err := argf(2, 1)
		if err != nil {
			return nil, err
		}
		if win < 1 || c < 0 {
			return nil, fmt.Errorf("bandit: spec %q: bad sw-ucb parameters", s)
		}
		return NewSWUCB(n, int(win), c, r), nil
	case "d-ucb":
		gamma, err := argf(1, 0.99)
		if err != nil {
			return nil, err
		}
		c, err := argf(2, 1)
		if err != nil {
			return nil, err
		}
		if gamma <= 0 || gamma >= 1 || c < 0 {
			return nil, fmt.Errorf("bandit: spec %q: bad d-ucb parameters", s)
		}
		return NewDUCB(n, gamma, c, r), nil
	case "thompson":
		return NewThompsonBernoulli(n, cfg, r), nil
	case "softmax":
		temp, err := argf(1, 0.1)
		if err != nil {
			return nil, err
		}
		if temp <= 0 {
			return nil, fmt.Errorf("bandit: spec %q: temperature must be > 0", s)
		}
		return NewSoftmax(n, temp, cfg, r), nil
	case "exp3":
		gamma, err := argf(1, 0.1)
		if err != nil {
			return nil, err
		}
		if gamma <= 0 || gamma > 1 {
			return nil, fmt.Errorf("bandit: spec %q: gamma must be in (0,1]", s)
		}
		return NewEXP3(n, gamma, cfg, r), nil
	case "round-robin":
		return NewRoundRobin(n, cfg), nil
	case "random":
		return NewUniformRandom(n, cfg, r), nil
	default:
		return nil, fmt.Errorf("bandit: unknown policy spec %q (known: %s)", s, strings.Join(KnownSpecs(), ", "))
	}
}

// MustBuild is Build for static specs in experiments; it panics on error.
func (s Spec) MustBuild(n int, cfg StatsConfig, r *rng.RNG) Policy {
	p, err := s.Build(n, cfg, r)
	if err != nil {
		panic(err)
	}
	return p
}
