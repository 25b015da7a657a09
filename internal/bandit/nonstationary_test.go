package bandit

import (
	"testing"

	"zombie/internal/rng"
)

func nonstationaryPolicies(n int, r *rng.RNG) []Policy {
	return []Policy{
		NewSWUCB(n, 100, 1, r.Split("sw")),
		NewDUCB(n, 0.98, 1, r.Split("d")),
	}
}

func TestNonstationaryPoliciesBasicContract(t *testing.T) {
	r := rng.New(1)
	for _, p := range nonstationaryPolicies(5, r) {
		if p.NumArms() != 5 {
			t.Fatalf("%s: NumArms = %d", p.Name(), p.NumArms())
		}
		counts := bernoulliBandit(p, []float64{0.1, 0.2, 0.3, 0.4, 0.5}, 400, r.Split(p.Name()))
		total := int64(0)
		for _, c := range counts {
			total += c
		}
		if total != 400 {
			t.Fatalf("%s: pulls sum to %d", p.Name(), total)
		}
		for _, s := range p.Snapshot() {
			if s.Pulls < 0 || s.Mean < 0 || s.Mean > 1 {
				t.Fatalf("%s: bad snapshot %+v", p.Name(), s)
			}
		}
	}
}

func TestNonstationaryPoliciesFindBestArm(t *testing.T) {
	r := rng.New(2)
	for _, p := range nonstationaryPolicies(4, r) {
		counts := bernoulliBandit(p, []float64{0.1, 0.1, 0.85, 0.1}, 3000, r.Split("env-"+p.Name()))
		if counts[2] < 1200 {
			t.Fatalf("%s: best arm pulled only %d/3000 (%v)", p.Name(), counts[2], counts)
		}
	}
}

func TestNonstationaryPoliciesTrackDrift(t *testing.T) {
	// Arm 0 pays until step 1500, then arm 1 takes over. Forgetting
	// policies must shift most of their late pulls to arm 1; plain UCB1
	// is included to show the contrast.
	run := func(p Policy, r *rng.RNG) (latePullsArm1 int64) {
		eligible := AllEligible(2)
		for step := 0; step < 3000; step++ {
			arm := p.Select(eligible)
			prob := 0.1
			if (step < 1500 && arm == 0) || (step >= 1500 && arm == 1) {
				prob = 0.85
			}
			reward := 0.0
			if r.Bernoulli(prob) {
				reward = 1
			}
			p.Update(arm, reward)
			if step >= 2200 && arm == 1 {
				latePullsArm1++
			}
		}
		return latePullsArm1
	}
	r := rng.New(3)
	sw := run(NewSWUCB(2, 150, 1, r.Split("sw")), r.Split("env-sw"))
	du := run(NewDUCB(2, 0.99, 1, r.Split("d")), r.Split("env-d"))
	if sw < 600 {
		t.Fatalf("SW-UCB failed to track drift: %d/800 late pulls on new best arm", sw)
	}
	if du < 600 {
		t.Fatalf("D-UCB failed to track drift: %d/800 late pulls on new best arm", du)
	}
}

func TestNonstationaryEligibility(t *testing.T) {
	r := rng.New(4)
	for _, p := range nonstationaryPolicies(6, r) {
		mask := []bool{false, true, false, false, true, false}
		for i := 0; i < 200; i++ {
			arm := p.Select(mask)
			if !mask[arm] {
				t.Fatalf("%s: ineligible arm %d selected", p.Name(), arm)
			}
			p.Update(arm, r.Float64())
		}
	}
}

func TestNonstationaryValidation(t *testing.T) {
	r := rng.New(5)
	mustPanic(t, "sw arms", func() { NewSWUCB(0, 10, 1, r) })
	mustPanic(t, "sw window", func() { NewSWUCB(2, 0, 1, r) })
	mustPanic(t, "sw c", func() { NewSWUCB(2, 10, -1, r) })
	mustPanic(t, "d arms", func() { NewDUCB(0, 0.9, 1, r) })
	mustPanic(t, "d gamma lo", func() { NewDUCB(2, 0, 1, r) })
	mustPanic(t, "d gamma hi", func() { NewDUCB(2, 1, 1, r) })
	mustPanic(t, "d c", func() { NewDUCB(2, 0.9, -1, r) })
	sw := NewSWUCB(2, 10, 1, r)
	mustPanic(t, "sw update range", func() { sw.Update(5, 1) })
	du := NewDUCB(2, 0.9, 1, r)
	mustPanic(t, "d update range", func() { du.Update(-1, 1) })
}

func TestNonstationarySpecs(t *testing.T) {
	r := rng.New(6)
	for _, tc := range []struct {
		spec Spec
		name string
	}{
		{"sw-ucb", "sw-ucb(200,1.00)"},
		{"sw-ucb:50:2", "sw-ucb(50,2.00)"},
		{"d-ucb", "d-ucb(0.990,1.00)"},
		{"d-ucb:0.9:0.5", "d-ucb(0.900,0.50)"},
	} {
		p, err := tc.spec.Build(3, DefaultStats(), r.Split(string(tc.spec)))
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if p.Name() != tc.name {
			t.Fatalf("%s built %q, want %q", tc.spec, p.Name(), tc.name)
		}
	}
	for _, bad := range []Spec{"sw-ucb:0", "sw-ucb:10:-1", "d-ucb:1.5", "d-ucb:0.9:-1"} {
		if _, err := bad.Build(3, DefaultStats(), r); err == nil {
			t.Fatalf("%s: expected error", bad)
		}
	}
}
