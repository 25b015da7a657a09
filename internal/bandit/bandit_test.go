package bandit

import (
	"math"
	"testing"
	"testing/quick"

	"zombie/internal/rng"
)

func allPolicies(n int, r *rng.RNG) []Policy {
	cfg := DefaultStats()
	return []Policy{
		NewEpsilonGreedy(n, 0.1, 0, cfg, r.Split("eg")),
		NewEpsilonGreedy(n, 0, 0, cfg, r.Split("greedy")),
		NewEpsilonGreedy(n, 0.5, 0.01, cfg, r.Split("decay")),
		NewUCB1(n, 1, cfg, r.Split("ucb")),
		NewThompsonBernoulli(n, cfg, r.Split("ts")),
		NewSoftmax(n, 0.1, cfg, r.Split("sm")),
		NewEXP3(n, 0.1, cfg, r.Split("exp3")),
		NewRoundRobin(n, cfg),
		NewUniformRandom(n, cfg, r.Split("ur")),
	}
}

// bernoulliBandit runs policy p for steps pulls against stationary
// Bernoulli arms with the given success probabilities and returns per-arm
// pull counts.
func bernoulliBandit(p Policy, probs []float64, steps int, r *rng.RNG) []int64 {
	eligible := AllEligible(len(probs))
	for i := 0; i < steps; i++ {
		arm := p.Select(eligible)
		reward := 0.0
		if r.Bernoulli(probs[arm]) {
			reward = 1
		}
		p.Update(arm, reward)
	}
	counts := make([]int64, len(probs))
	for _, s := range p.Snapshot() {
		counts[s.Arm] = s.Pulls
	}
	return counts
}

func TestPullAccountingSumsToSteps(t *testing.T) {
	r := rng.New(100)
	for _, p := range allPolicies(5, r) {
		counts := bernoulliBandit(p, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, 500, r.Split(p.Name()))
		total := int64(0)
		for _, c := range counts {
			total += c
		}
		if total != 500 {
			t.Errorf("%s: pulls sum to %d, want 500", p.Name(), total)
		}
	}
}

func TestAdaptivePoliciesFindBestArm(t *testing.T) {
	// On a strongly separated stationary problem, every reward-adaptive
	// policy should concentrate the majority of pulls on the best arm.
	probs := []float64{0.05, 0.1, 0.9, 0.05}
	r := rng.New(200)
	adaptive := []Policy{
		NewEpsilonGreedy(4, 0.1, 0, DefaultStats(), r.Split("eg")),
		NewUCB1(4, 1, DefaultStats(), r.Split("ucb")),
		NewThompsonBernoulli(4, DefaultStats(), r.Split("ts")),
		NewSoftmax(4, 0.05, DefaultStats(), r.Split("sm")),
		NewEXP3(4, 0.1, DefaultStats(), r.Split("exp3")),
	}
	for _, p := range adaptive {
		counts := bernoulliBandit(p, probs, 3000, r.Split("env-"+p.Name()))
		if counts[2] < 1500 {
			t.Errorf("%s: best arm pulled only %d/3000 times (%v)", p.Name(), counts[2], counts)
		}
	}
}

func TestNonAdaptiveBaselinesSpreadPulls(t *testing.T) {
	probs := []float64{0.05, 0.9, 0.05, 0.05}
	r := rng.New(300)
	for _, p := range []Policy{
		NewRoundRobin(4, DefaultStats()),
		NewUniformRandom(4, DefaultStats(), r.Split("ur")),
	} {
		counts := bernoulliBandit(p, probs, 4000, r.Split("env-"+p.Name()))
		for i, c := range counts {
			if c < 700 || c > 1300 {
				t.Errorf("%s: arm %d pulled %d times, expected ~1000 (%v)", p.Name(), i, c, counts)
			}
		}
	}
}

func TestRoundRobinExactCycle(t *testing.T) {
	p := NewRoundRobin(3, DefaultStats())
	eligible := AllEligible(3)
	want := []int{0, 1, 2, 0, 1, 2}
	for i, w := range want {
		got := p.Select(eligible)
		if got != w {
			t.Fatalf("step %d: got arm %d, want %d", i, got, w)
		}
		p.Update(got, 0)
	}
}

func TestEligibilityMaskRespected(t *testing.T) {
	r := rng.New(400)
	for _, p := range allPolicies(6, r) {
		mask := []bool{false, true, false, true, false, false}
		for i := 0; i < 300; i++ {
			arm := p.Select(mask)
			if !mask[arm] {
				t.Fatalf("%s: selected ineligible arm %d", p.Name(), arm)
			}
			p.Update(arm, r.Float64())
		}
	}
}

func TestSingleEligibleArmAlwaysChosen(t *testing.T) {
	r := rng.New(500)
	for _, p := range allPolicies(4, r) {
		mask := []bool{false, false, true, false}
		for i := 0; i < 50; i++ {
			if arm := p.Select(mask); arm != 2 {
				t.Fatalf("%s: selected %d, only arm 2 eligible", p.Name(), arm)
			}
			p.Update(2, 1)
		}
	}
}

func TestSelectPanicsOnBadMask(t *testing.T) {
	r := rng.New(600)
	for _, p := range allPolicies(3, r) {
		p := p
		mustPanic(t, p.Name()+" empty mask", func() { p.Select([]bool{false, false, false}) })
		mustPanic(t, p.Name()+" wrong length", func() { p.Select([]bool{true}) })
	}
}

func TestUpdatePanicsOutOfRange(t *testing.T) {
	r := rng.New(700)
	for _, p := range allPolicies(3, r) {
		p := p
		mustPanic(t, p.Name()+" negative arm", func() { p.Update(-1, 1) })
		mustPanic(t, p.Name()+" overflow arm", func() { p.Update(3, 1) })
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []int {
		r := rng.New(900)
		p := NewEpsilonGreedy(5, 0.2, 0, DefaultStats(), r.Split("p"))
		env := r.Split("env")
		seq := make([]int, 300)
		eligible := AllEligible(5)
		for i := range seq {
			arm := p.Select(eligible)
			seq[i] = arm
			reward := 0.0
			if env.Bernoulli(0.2 * float64(arm+1)) {
				reward = 1
			}
			p.Update(arm, reward)
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestUnpulledArmsTriedFirst(t *testing.T) {
	// Optimistic initialization: greedy and UCB1 must try every arm before
	// settling, even with a tempting early winner.
	r := rng.New(1000)
	for _, p := range []Policy{
		NewEpsilonGreedy(6, 0, 0, DefaultStats(), r.Split("g")),
		NewUCB1(6, 1, DefaultStats(), r.Split("u")),
	} {
		seen := map[int]bool{}
		eligible := AllEligible(6)
		for i := 0; i < 6; i++ {
			arm := p.Select(eligible)
			if seen[arm] {
				t.Fatalf("%s: arm %d repeated before all arms tried", p.Name(), arm)
			}
			seen[arm] = true
			p.Update(arm, 1) // max reward: a greedy policy would stick without optimism
		}
	}
}

func TestConstructorValidation(t *testing.T) {
	r := rng.New(1100)
	mustPanic(t, "zero arms", func() { NewRoundRobin(0, DefaultStats()) })
	mustPanic(t, "bad epsilon", func() { NewEpsilonGreedy(2, 1.5, 0, DefaultStats(), r) })
	mustPanic(t, "bad decay", func() { NewEpsilonGreedy(2, 0.1, -1, DefaultStats(), r) })
	mustPanic(t, "bad ucb c", func() { NewUCB1(2, -1, DefaultStats(), r) })
	mustPanic(t, "bad temperature", func() { NewSoftmax(2, 0, DefaultStats(), r) })
	mustPanic(t, "bad gamma", func() { NewEXP3(2, 0, DefaultStats(), r) })
	mustPanic(t, "bad gamma hi", func() { NewEXP3(2, 1.1, DefaultStats(), r) })
}

func TestSnapshotMeansMatchRewards(t *testing.T) {
	if err := quick.Check(func(rewardsRaw [20]uint8) bool {
		r := rng.New(1200)
		p := NewRoundRobin(2, DefaultStats())
		var sums [2]float64
		var counts [2]float64
		eligible := AllEligible(2)
		for _, raw := range rewardsRaw {
			arm := p.Select(eligible)
			reward := float64(raw%100) / 100
			p.Update(arm, reward)
			sums[arm] += reward
			counts[arm]++
		}
		_ = r
		for _, s := range p.Snapshot() {
			want := 0.0
			if counts[s.Arm] > 0 {
				want = sums[s.Arm] / counts[s.Arm]
			}
			if math.Abs(s.Mean-want) > 1e-9 {
				return false
			}
			if s.Pulls != int64(counts[s.Arm]) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}
