package bandit

import (
	"math"
	"testing"

	"zombie/internal/rng"
)

func TestCumulativeEstimator(t *testing.T) {
	e := DefaultStats().NewEstimator()
	if e.Value() != 0 {
		t.Fatal("fresh estimator not zero")
	}
	e.Observe(1)
	e.Observe(0)
	e.Observe(1)
	if math.Abs(e.Value()-2.0/3.0) > 1e-12 {
		t.Fatalf("Value = %v", e.Value())
	}
}

func TestWindowEstimatorForgets(t *testing.T) {
	e := StatsConfig{Kind: Windowed, Window: 3}.NewEstimator()
	for i := 0; i < 10; i++ {
		e.Observe(1) // arm used to be great
	}
	for i := 0; i < 3; i++ {
		e.Observe(0) // then went cold
	}
	if e.Value() != 0 {
		t.Fatalf("windowed estimator should have forgotten: %v", e.Value())
	}
}

func TestCumulativeEstimatorDoesNotForget(t *testing.T) {
	e := DefaultStats().NewEstimator()
	for i := 0; i < 10; i++ {
		e.Observe(1)
	}
	for i := 0; i < 3; i++ {
		e.Observe(0)
	}
	if e.Value() < 0.5 {
		t.Fatalf("cumulative estimator forgot history: %v", e.Value())
	}
}

func TestDiscountedEstimatorTracksDrift(t *testing.T) {
	e := StatsConfig{Kind: Discounted, Gamma: 0.9}.NewEstimator()
	for i := 0; i < 100; i++ {
		e.Observe(1)
	}
	highVal := e.Value()
	for i := 0; i < 50; i++ {
		e.Observe(0)
	}
	if e.Value() > 0.1 {
		t.Fatalf("discounted estimator too sticky: %v (was %v)", e.Value(), highVal)
	}
	if math.Abs(highVal-1) > 1e-6 {
		t.Fatalf("constant stream should estimate 1, got %v", highVal)
	}
}

func TestEstimatorConfigValidation(t *testing.T) {
	mustPanic(t, "bad window", func() { StatsConfig{Kind: Windowed}.NewEstimator() })
	mustPanic(t, "bad gamma lo", func() { StatsConfig{Kind: Discounted, Gamma: 0}.NewEstimator() })
	mustPanic(t, "bad gamma hi", func() { StatsConfig{Kind: Discounted, Gamma: 1}.NewEstimator() })
	mustPanic(t, "unknown kind", func() { StatsConfig{Kind: StatsKind(99)}.NewEstimator() })
}

func TestStatsKindString(t *testing.T) {
	if Cumulative.String() != "cumulative" || Windowed.String() != "windowed" || Discounted.String() != "discounted" {
		t.Fatal("StatsKind labels wrong")
	}
	if StatsKind(42).String() != "StatsKind(42)" {
		t.Fatalf("unknown kind label: %s", StatsKind(42).String())
	}
}

func TestWindowedPolicyRecoversFromDrift(t *testing.T) {
	// Nonstationary environment: arm 0 pays early then dies; arm 1 starts
	// paying later. A windowed ε-greedy should shift to arm 1; a cumulative
	// one is slower. This is the mechanism experiment F7 measures.
	run := func(cfg StatsConfig) int64 {
		r := rng.New(42)
		p := NewEpsilonGreedy(2, 0.1, 0, cfg, r.Split("p"))
		env := r.Split("env")
		eligible := AllEligible(2)
		armPullsLate := int64(0)
		for step := 0; step < 4000; step++ {
			arm := p.Select(eligible)
			var prob float64
			if step < 2000 { // phase 1: arm 0 pays
				if arm == 0 {
					prob = 0.8
				} else {
					prob = 0.1
				}
			} else { // phase 2: arm 1 pays
				if arm == 1 {
					prob = 0.8
				} else {
					prob = 0.05
				}
				if arm == 1 {
					armPullsLate++
				}
			}
			reward := 0.0
			if env.Bernoulli(prob) {
				reward = 1
			}
			p.Update(arm, reward)
		}
		return armPullsLate
	}
	windowed := run(StatsConfig{Kind: Windowed, Window: 100})
	cumulative := run(DefaultStats())
	if windowed <= cumulative {
		t.Fatalf("windowed stats should adapt faster: windowed=%d cumulative=%d", windowed, cumulative)
	}
	if windowed < 1200 {
		t.Fatalf("windowed policy failed to shift to the new best arm: %d/2000 late pulls", windowed)
	}
}
