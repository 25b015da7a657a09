package bandit

import (
	"fmt"
	"math"

	"zombie/internal/rng"
)

// UCB1 implements the classic upper-confidence-bound policy of Auer,
// Cesa-Bianchi and Fischer: each arm scores estimate + C·sqrt(2·ln t / n_i)
// and the highest score wins. Unpulled eligible arms are played first.
// C scales the exploration bonus; C=1 is the textbook setting.
type UCB1 struct {
	*arms
	C float64
	r *rng.RNG
}

// NewUCB1 returns a UCB1 policy over n arms. It panics if c < 0.
func NewUCB1(n int, c float64, cfg StatsConfig, r *rng.RNG) *UCB1 {
	if c < 0 {
		panic("bandit: UCB1 exploration constant must be >= 0")
	}
	return &UCB1{arms: newArms(n, cfg), C: c, r: r}
}

// Name implements Policy.
func (p *UCB1) Name() string { return fmt.Sprintf("ucb1(%.2f)", p.C) }

// Select implements Policy.
func (p *UCB1) Select(eligible []bool) int {
	idx := checkEligible(p.NumArms(), eligible)
	t := math.Max(float64(p.total), 1)
	return ucb(idx, p.r, p.C, t,
		func(i int) bool { return p.pulls[i] == 0 },
		func(i int) float64 { return float64(p.pulls[i]) },
		func(i int) float64 { return p.est[i].Value() })
}
