package bandit

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"zombie/internal/rng"
)

// pinnedStreams holds, per spec and estimator kind, the FNV-64a hash of a
// policyStream run. A change to any policy's arithmetic, tie-break order or
// RNG draw sequence moves its hash; every curve the engine produces rides
// on these streams, so a refactor of the package must leave them all
// unchanged.
var pinnedStreams = map[string]string{
	"d-ucb:0.99:1/cumulative":       "43c9edcf9e59d7dd",
	"d-ucb:0.99:1/windowed":         "43c9edcf9e59d7dd",
	"d-ucb:0.99:1/discounted":       "43c9edcf9e59d7dd",
	"eps-decay:0.5:0.01/cumulative": "f7d4d8809e3527de",
	"eps-decay:0.5:0.01/windowed":   "3fbd4b31d3052b8c",
	"eps-decay:0.5:0.01/discounted": "7d3d05b1e9e58eb1",
	"eps-greedy:0.1/cumulative":     "087c14447cd1ac10",
	"eps-greedy:0.1/windowed":       "de0cd1b98c6d3e58",
	"eps-greedy:0.1/discounted":     "dca47a1b80937320",
	"exp3:0.1/cumulative":           "b9c99475a2ca1469",
	"exp3:0.1/windowed":             "03bf1a6ec76ea915",
	"exp3:0.1/discounted":           "a8dd16b657c8b001",
	"greedy/cumulative":             "347423742d8ea23a",
	"greedy/windowed":               "534b5ccb967a9f12",
	"greedy/discounted":             "3d00201ca0b9d3c2",
	"random/cumulative":             "af2c19eb13616b38",
	"random/windowed":               "7fef54312ee631d0",
	"random/discounted":             "6511b0bbc2e34eb4",
	"round-robin/cumulative":        "7a72e7703b535062",
	"round-robin/windowed":          "9c0e464f18e4d426",
	"round-robin/discounted":        "7d2a3bfeef7bf4ca",
	"softmax:0.1/cumulative":        "1896b18d5e3e559c",
	"softmax:0.1/windowed":          "f1aa6ff96162a5e1",
	"softmax:0.1/discounted":        "d4958f3032276bfa",
	"sw-ucb:200:1/cumulative":       "d8ca308e7ebaa27f",
	"sw-ucb:200:1/windowed":         "d8ca308e7ebaa27f",
	"sw-ucb:200:1/discounted":       "d8ca308e7ebaa27f",
	"thompson/cumulative":           "fbb62e12c1697cc2",
	"thompson/windowed":             "d5cdd664cb1c7c37",
	"thompson/discounted":           "a55851ba4c3bdd97",
	"ucb1:1/cumulative":             "255a4c3bc8241c49",
	"ucb1:1/windowed":               "e1c61ab84b186274",
	"ucb1:1/discounted":             "6a043a1bcbe86856",
}

// policyStream drives spec over 8 Bernoulli arms for 2 000 steps while
// retiring arms on a fixed schedule, then seeds a fresh policy from the
// final snapshots at decay 0.5. It hashes the selected arms and both
// policies' final snapshots.
func policyStream(t *testing.T, spec Spec, cfg StatsConfig) string {
	t.Helper()
	const arms, steps = 8, 2000
	r := rng.New(4242)
	p, err := spec.Build(arms, cfg, r.Split("policy"))
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	env := r.Split("env")
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	putSnaps := func(snaps []ArmSnapshot) {
		for _, s := range snaps {
			put(uint64(s.Arm))
			put(uint64(s.Pulls))
			put(math.Float64bits(s.Mean))
			put(math.Float64bits(s.Recent))
		}
	}
	// Arm i pays with probability (i+1)/10; arms 7, 6, 5 and 4 retire at
	// steps 500, 900, 1300 and 1700, the richest first, as an index group
	// runs out of inputs.
	retire := []int{steps, steps, steps, steps, 1700, 1300, 900, 500}
	eligible := make([]bool, arms)
	for step := 0; step < steps; step++ {
		for i := range eligible {
			eligible[i] = step < retire[i]
		}
		arm := p.Select(eligible)
		put(uint64(arm))
		reward := 0.0
		if env.Bernoulli(float64(arm+1) / 10) {
			reward = 1
		}
		p.Update(arm, reward)
	}
	snaps := p.Snapshot()
	putSnaps(snaps)
	fresh := spec.MustBuild(arms, cfg, r.Split("seeded"))
	if _, err := Seed(fresh, snaps, 0.5); err != nil {
		t.Fatalf("%s: Seed: %v", spec, err)
	}
	putSnaps(fresh.Snapshot())
	return fmt.Sprintf("%016x", h.Sum64())
}

func TestPolicyStreamsPinned(t *testing.T) {
	for _, spec := range KnownSpecs() {
		for _, cfg := range []StatsConfig{
			DefaultStats(),
			{Kind: Windowed, Window: 50},
			{Kind: Discounted, Gamma: 0.95},
		} {
			key := spec + "/" + cfg.Kind.String()
			got := policyStream(t, Spec(spec), cfg)
			if want := pinnedStreams[key]; got != want {
				t.Errorf("%s: stream hash %s, pinned %s", key, got, want)
			}
		}
	}
}
