package core

import (
	"fmt"
	"sort"

	"zombie/internal/bandit"
	"zombie/internal/corpus"
	"zombie/internal/featurepipe"
	"zombie/internal/index"
	"zombie/internal/rng"
)

// inputSource abstracts where the next input comes from, so the bandit
// engine and the scan baselines share one inner loop.
type inputSource interface {
	// nextBatch returns up to k input store indices popped under one
	// selection decision, and the arm that chose them; ok is false when
	// the source is exhausted. Exactly one policy decision (and therefore
	// one RNG draw sequence) is consumed per call regardless of k, which
	// is what makes nextBatch(1) consume randomness identically to the
	// pre-batching per-step loop. The returned slice may alias internal
	// storage and is only valid until the next call. A short batch (fewer
	// than k indices) means the chosen arm ran out of inputs, not that the
	// source is exhausted — the caller keeps pulling.
	nextBatch(k int) (idxs []int, arm int, ok bool)
	// feedback credits the reward for one input of the most recent pull
	// of arm; a batch of n inputs feeds back n times.
	feedback(arm int, reward float64)
	// name labels the selection strategy in results.
	name() string
	// arms returns per-arm statistics (nil for scans).
	arms() []bandit.ArmSnapshot
}

func dummyRNG() *rng.RNG { return rng.New(0) }

// banditSource walks index groups under a bandit policy. Group member
// lists are pre-filtered to the task's input pool; each group keeps a
// cursor, and a group becomes ineligible when its cursor reaches the end.
type banditSource struct {
	policy  bandit.Policy
	members [][]int
	cursor  []int
	elig    []bool
	batch   []int // reused across nextBatch calls
	label   string
}

// PoolMembers returns each group's members filtered to the pool mask, in
// group order: the order a bandit run hands an arm's inputs out, pull
// after pull. It is the one definition of that order — the distributed
// coordinator reads an arm's upcoming inputs from it, so what it fetches
// ahead is exactly what the loop will ask for.
func PoolMembers(groups *index.Groups, pool []bool) [][]int {
	members := make([][]int, groups.K())
	for g, ms := range groups.Members {
		for _, idx := range ms {
			if pool[idx] {
				members[g] = append(members[g], idx)
			}
		}
	}
	return members
}

// newBanditSource filters groups to the pool mask and builds the policy.
func newBanditSource(groups *index.Groups, pool []bool, spec bandit.Spec,
	stats bandit.StatsConfig, r *rng.RNG) (*banditSource, error) {
	if groups == nil || groups.K() == 0 {
		return nil, fmt.Errorf("core: bandit run requires non-empty groups")
	}
	if len(pool) != groups.Len() {
		return nil, fmt.Errorf("core: pool mask length %d does not match groups over %d inputs", len(pool), groups.Len())
	}
	members := PoolMembers(groups, pool)
	total := 0
	for _, ms := range members {
		total += len(ms)
	}
	if total == 0 {
		return nil, fmt.Errorf("core: no pool inputs fall inside the groups")
	}
	policy, err := spec.Build(groups.K(), stats, r)
	if err != nil {
		return nil, err
	}
	s := &banditSource{
		policy:  policy,
		members: members,
		cursor:  make([]int, groups.K()),
		elig:    make([]bool, groups.K()),
		label:   fmt.Sprintf("zombie(%s)", policy.Name()),
	}
	return s, nil
}

func (s *banditSource) nextBatch(k int) ([]int, int, bool) {
	any := false
	for g := range s.members {
		ok := s.cursor[g] < len(s.members[g])
		s.elig[g] = ok
		any = any || ok
	}
	if !any {
		return nil, 0, false
	}
	arm := s.policy.Select(s.elig)
	// Pop up to k consecutive members from the selected arm. When the arm
	// holds fewer than k the batch is short — the caller handles partial
	// batches; the arm simply becomes ineligible on the next pull.
	if remaining := len(s.members[arm]) - s.cursor[arm]; k > remaining {
		k = remaining
	}
	s.batch = s.batch[:0]
	for i := 0; i < k; i++ {
		s.batch = append(s.batch, s.members[arm][s.cursor[arm]])
		s.cursor[arm]++
	}
	return s.batch, arm, true
}

// warmStart seeds the policy from a previous run's arm snapshots (see
// bandit.Seed). It must run before the first nextBatch call; it returns
// the number of synthetic pulls applied.
func (s *banditSource) warmStart(snaps []bandit.ArmSnapshot, decay float64) (int64, error) {
	if decay == 0 || len(snaps) == 0 {
		return 0, nil
	}
	n, err := bandit.Seed(s.policy, snaps, decay)
	if err != nil {
		return 0, fmt.Errorf("core: warm start: %w", err)
	}
	return n, nil
}

func (s *banditSource) feedback(arm int, reward float64) { s.policy.Update(arm, reward) }
func (s *banditSource) name() string                     { return s.label }
func (s *banditSource) arms() []bandit.ArmSnapshot       { return s.policy.Snapshot() }

// scanSource yields a fixed order of pool indices: the sequential and
// shuffled-scan baselines, and the oracle ordering.
type scanSource struct {
	order  []int
	cursor int
	label  string
}

func (s *scanSource) nextBatch(k int) ([]int, int, bool) {
	if s.cursor >= len(s.order) {
		return nil, 0, false
	}
	if remaining := len(s.order) - s.cursor; k > remaining {
		k = remaining
	}
	batch := s.order[s.cursor : s.cursor+k]
	s.cursor += k
	return batch, 0, true
}

func (s *scanSource) feedback(int, float64)      {}
func (s *scanSource) name() string               { return s.label }
func (s *scanSource) arms() []bandit.ArmSnapshot { return nil }

// newSequentialScan processes the pool in ascending store order — the
// "just run the job" baseline whose order is whatever the crawl wrote.
func newSequentialScan(pool []int) *scanSource {
	order := append([]int(nil), pool...)
	sort.Ints(order)
	return &scanSource{order: order, label: "scan(sequential)"}
}

// newRandomScan processes the pool in seeded shuffled order — the
// paper's primary baseline (uniform random sampling without replacement).
func newRandomScan(pool []int, r *rng.RNG) *scanSource {
	order := append([]int(nil), pool...)
	r.ShuffleInts(order)
	return &scanSource{order: order, label: "scan(random)"}
}

// newOracleScan processes ground-truth useful inputs first — the skyline
// no selector can beat — each part in seeded shuffled order.
func newOracleScan(task *featurepipe.Task, r *rng.RNG) *scanSource {
	var useful, rest []int
	for _, idx := range task.PoolIdx {
		if OracleUseful(task.Store.Get(idx), task.Feature) {
			useful = append(useful, idx)
		} else {
			rest = append(rest, idx)
		}
	}
	r.ShuffleInts(useful)
	r.ShuffleInts(rest)
	return &scanSource{order: append(useful, rest...), label: "scan(oracle)"}
}

// OracleUseful mirrors the task feature functions' usefulness definitions
// at the ground-truth level, without paying for extraction: a song is
// useful when its genre is in the rarer half, any other input when its
// class is 1.
func OracleUseful(in *corpus.Input, f featurepipe.FeatureFunc) bool {
	if sf, ok := f.(*featurepipe.SongFeature); ok {
		return in.Truth.Class >= sf.Genres/2
	}
	return in.Truth.Class == 1
}
