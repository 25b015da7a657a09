package dist

import (
	"fmt"

	"zombie/internal/rng"
)

// ShardMap is the deterministic assignment of corpus store indices to
// worker shards. It is a pure function of (n, shards, seed): the
// coordinator and every worker compute it independently from the run spec
// and must agree byte-for-byte, which is what lets workers validate
// ownership without a membership protocol. Because n is the count of
// inputs that *survived* loading (a tolerant JSONL read may have dropped
// lines), two processes mounting the same corpus artifact always agree on
// the map even when the raw file is partially corrupt — they agree on the
// survivors, so they agree on the assignment.
type ShardMap struct {
	// Shards is the worker count the map was built for.
	Shards int `json:"shards"`
	// Assign maps store index → owning shard in [0, Shards).
	Assign []int `json:"assign"`
}

// NewShardMap partitions n store indices across shards. Assignment is
// round-robin over a seeded permutation: shard sizes are balanced within
// one, membership is decorrelated from store order (a corpus sorted by
// class cannot load one shard with one class), and the result depends
// only on the arguments. shards may exceed n — the surplus shards are
// simply empty, which is a valid map, not an error: a coordinator asked
// for 8 workers over a 5-input corpus routes 5 steps and idles 3 workers.
// n == 0 (an entirely empty corpus) likewise yields a valid map with
// every shard empty; task construction rejects empty corpora downstream.
func NewShardMap(n, shards int, seed int64) (*ShardMap, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("dist: shard count %d out of range (want >= 1)", shards)
	}
	if n < 0 {
		return nil, fmt.Errorf("dist: negative input count %d", n)
	}
	assign := make([]int, n)
	perm := rng.New(seed).Split("shardmap").Perm(n)
	for i, idx := range perm {
		assign[idx] = i % shards
	}
	return &ShardMap{Shards: shards, Assign: assign}, nil
}

// Owner returns the shard owning store index idx, or -1 when idx is out
// of range (the caller reports it; an out-of-range index is a routing
// bug, not a panic).
func (m *ShardMap) Owner(idx int) int {
	if idx < 0 || idx >= len(m.Assign) {
		return -1
	}
	return m.Assign[idx]
}

// Sizes returns the number of inputs owned by each shard.
func (m *ShardMap) Sizes() []int {
	sizes := make([]int, m.Shards)
	for _, s := range m.Assign {
		sizes[s]++
	}
	return sizes
}
