package bandit

import (
	"strings"
	"testing"

	"zombie/internal/rng"
)

func TestSpecBuildKnown(t *testing.T) {
	r := rng.New(1)
	for _, tc := range []struct {
		spec Spec
		name string
	}{
		{"greedy", "eps-greedy(0.00)"},
		{"eps-greedy:0.25", "eps-greedy(0.25)"},
		{"eps-greedy", "eps-greedy(0.10)"},
		{"eps-decay:0.5:0.01", "eps-greedy(0.50,decay=0.010)"},
		{"ucb1", "ucb1(1.00)"},
		{"ucb1:2.5", "ucb1(2.50)"},
		{"thompson", "thompson"},
		{"softmax:0.2", "softmax(0.20)"},
		{"exp3:0.3", "exp3(0.30)"},
		{"round-robin", "round-robin"},
		{"random", "uniform-random"},
	} {
		p, err := tc.spec.Build(4, DefaultStats(), r.Split(string(tc.spec)))
		if err != nil {
			t.Fatalf("spec %q: %v", tc.spec, err)
		}
		if p.Name() != tc.name {
			t.Errorf("spec %q built %q, want %q", tc.spec, p.Name(), tc.name)
		}
		if p.NumArms() != 4 {
			t.Errorf("spec %q: NumArms = %d", tc.spec, p.NumArms())
		}
	}
}

func TestSpecBuildErrors(t *testing.T) {
	r := rng.New(2)
	for _, spec := range []Spec{
		"nope",
		"eps-greedy:abc",
		"eps-greedy:1.5",
		"eps-decay:0.5:-1",
		"ucb1:-2",
		"softmax:0",
		"exp3:0",
		"exp3:2",
	} {
		if _, err := spec.Build(3, DefaultStats(), r); err == nil {
			t.Errorf("spec %q: expected error", spec)
		}
	}
}

func TestUnknownSpecErrorListsKnown(t *testing.T) {
	_, err := Spec("bogus").Build(2, DefaultStats(), rng.New(3))
	if err == nil || !strings.Contains(err.Error(), "ucb1") {
		t.Fatalf("error should list known specs, got: %v", err)
	}
}

func TestMustBuildPanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild should panic on bad spec")
		}
	}()
	Spec("bogus").MustBuild(2, DefaultStats(), rng.New(4))
}

func TestKnownSpecsAllBuild(t *testing.T) {
	r := rng.New(5)
	for _, s := range KnownSpecs() {
		if _, err := Spec(s).Build(3, DefaultStats(), r.Split(s)); err != nil {
			t.Errorf("known spec %q failed to build: %v", s, err)
		}
	}
}
