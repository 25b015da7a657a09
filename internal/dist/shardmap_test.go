package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"zombie/internal/corpus"
)

func TestShardMapDeterministicAndBalanced(t *testing.T) {
	a, err := NewShardMap(100, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardMap(100, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (n, shards, seed) produced different maps")
	}
	c, _ := NewShardMap(100, 4, 8)
	if reflect.DeepEqual(a.Assign, c.Assign) {
		t.Fatal("different seeds produced identical assignments")
	}
	sizes := a.Sizes()
	for s, n := range sizes {
		if n != 25 {
			t.Fatalf("shard %d owns %d of 100 inputs over 4 shards, want 25", s, n)
		}
	}
	// Every input has exactly one owner, and Owner reads the assignment.
	seen := map[int]bool{}
	for idx, s := range a.Assign {
		if s < 0 || s >= a.Shards {
			t.Fatalf("input %d assigned to shard %d of %d", idx, s, a.Shards)
		}
		seen[idx] = true
		if a.Owner(idx) != s {
			t.Fatalf("Owner(%d) = %d, want %d", idx, a.Owner(idx), s)
		}
	}
	if len(seen) != 100 {
		t.Fatalf("shards cover %d of 100 inputs", len(seen))
	}
}

func TestShardMapGuards(t *testing.T) {
	if _, err := NewShardMap(10, 0, 1); err == nil {
		t.Fatal("shards = 0 accepted")
	}
	if _, err := NewShardMap(10, -3, 1); err == nil {
		t.Fatal("negative shards accepted")
	}
	if _, err := NewShardMap(-1, 2, 1); err == nil {
		t.Fatal("negative n accepted")
	}
	// More shards than inputs is a valid map with empty shards, not an
	// error: the coordinator routes what exists and idles the rest.
	m, err := NewShardMap(3, 8, 42)
	if err != nil {
		t.Fatalf("shards > n rejected: %v", err)
	}
	sizes := m.Sizes()
	total, empty := 0, 0
	for _, n := range sizes {
		total += n
		if n == 0 {
			empty++
		}
	}
	if total != 3 || empty != 5 {
		t.Fatalf("sizes = %v, want 3 owned across 8 shards with 5 empty", sizes)
	}
	if m.Owner(99) != -1 || m.Owner(-1) != -1 {
		t.Fatal("out-of-range Owner should be -1")
	}
	// An empty corpus still maps (every shard empty).
	if m, err = NewShardMap(0, 4, 1); err != nil || len(m.Assign) != 0 {
		t.Fatalf("n = 0: map %v err %v", m, err)
	}
}

// TestShardMapTolerantReadStable pins the guard the satellite task names:
// a corpus whose tolerant JSONL read dropped lines must still produce a
// valid, deterministic shard map — two processes loading the same damaged
// artifact agree on the survivors, hence on the map.
func TestShardMapTolerantReadStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "damaged.jsonl")
	var data []byte
	for i := 0; i < 20; i++ {
		if i%5 == 4 {
			data = append(data, []byte("{torn json\n")...)
			continue
		}
		line := fmt.Sprintf(`{"id":"in-%d","kind":0,"text":"doc %d","truth":{"class":%d}}`+"\n", i, i, i%2)
		data = append(data, []byte(line)...)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	load := func() int {
		ins, skipped, err := corpus.ReadJSONLTolerant(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(skipped) == 0 {
			t.Fatal("expected dropped lines")
		}
		return len(ins)
	}
	n1, n2 := load(), load()
	if n1 != n2 {
		t.Fatalf("tolerant read unstable: %d vs %d survivors", n1, n2)
	}
	m1, err := NewShardMap(n1, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewShardMap(n2, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatal("same survivor count produced different maps")
	}
	if got := len(m1.Assign); got != n1 {
		t.Fatalf("map covers %d inputs, want %d survivors", got, n1)
	}
}
